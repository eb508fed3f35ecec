//! The workloads: seeded operation schedules, the request each operation
//! sends, and the oracles that judge every answer.
//!
//! Inputs come only from `--seed` (plus the server's fixed
//! `DataConfig::default()`): the same seed gives the same schedule.
//! Written features lie at x, y in [150, 200), outside every read window
//! (reads stay inside the 100 × 100 point region), so each read has an
//! exact answer however the writes interleave with it.

use crate::client::{self, Resp};
use crate::gen::Outcome;
use ee_serve::http::RequestParser;
use ee_serve::router::{dispatch, Outcome as Dispatched};
use ee_serve::state::{selection_sparql, AppState, REGION, SEARCH_TEXT_IRI};
use ee_util::json::{self, Json};
use ee_util::Rng;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One read-only process; ~1k repeated keys that fit the response cache.
    Browse,
    /// One durable `--writable` process; never-repeating reads beside commits.
    Ingest,
    /// A router over two shard processes; never-repeating routed reads.
    Routed,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browse" => Some(Workload::Browse),
            "ingest" => Some(Workload::Ingest),
            "routed" => Some(Workload::Routed),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Ingest => "ingest",
            Workload::Routed => "routed",
        }
    }

    /// Offered read rate (requests per second).
    pub fn read_rate(self) -> f64 {
        match self {
            Workload::Browse => 3000.0,
            Workload::Ingest => 300.0,
            Workload::Routed => 200.0,
        }
    }

    /// Offered write rate inside the measurement window.
    pub fn write_rate(self) -> f64 {
        match self {
            Workload::Ingest => 20.0,
            _ => 0.0,
        }
    }
}

/// Operation types, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Count,
    Rows,
    Post,
    AsOf,
    Tile,
    Ice,
    Classic,
    Semantic,
    Ranked,
    Write,
}

impl Kind {
    /// Every read type, in report order.
    pub const READS: [Kind; 9] = [
        Kind::Count,
        Kind::Rows,
        Kind::Post,
        Kind::AsOf,
        Kind::Tile,
        Kind::Ice,
        Kind::Classic,
        Kind::Semantic,
        Kind::Ranked,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::Rows => "rows",
            Kind::Post => "post",
            Kind::AsOf => "asof",
            Kind::Tile => "tile",
            Kind::Ice => "ice",
            Kind::Classic => "classic",
            Kind::Semantic => "semantic",
            Kind::Ranked => "ranked",
            Kind::Write => "write",
        }
    }
}

/// A square selection window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub x0: f64,
    pub y0: f64,
    pub side: f64,
}

impl Window {
    fn polygon(&self) -> String {
        let (x0, y0) = (self.x0, self.y0);
        let (x1, y1) = (x0 + self.side, y0 + self.side);
        format!("POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))")
    }

    /// The row selection: subjects inside the window, `LIMIT limit`,
    /// sorted by subject when `ordered` (the router sorts canonically by
    /// itself and refuses ORDER BY).
    pub fn rows_sparql(&self, limit: usize, ordered: bool) -> String {
        format!(
            "PREFIX e: <http://e/> SELECT ?s WHERE {{ ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"{}\"^^geo:wktLiteral)) }}{} LIMIT {limit}",
            self.polygon(),
            if ordered { " ORDER BY ?s" } else { "" }
        )
    }
}

/// One write: its update text and what it changes.
#[derive(Debug, Clone)]
pub struct Write {
    /// Subject the write touches.
    pub subject: String,
    /// `Some(mark)` for an insert of a new feature carrying `mark`;
    /// `None` for a delete of the subject's mark.
    pub mark: Option<String>,
    /// The `eo:searchText` document an insert carries, if any.
    pub search: Option<String>,
    /// The delete's removed mark (deletes only).
    pub removed: Option<String>,
    /// SPARQL UPDATE text.
    pub text: String,
    /// Target shard when writing beside a router.
    pub shard: Option<usize>,
}

/// One operation of a schedule.
#[derive(Debug, Clone)]
pub enum Op {
    Count(Window),
    Post(Window),
    Rows {
        w: Window,
        limit: usize,
        ordered: bool,
    },
    AsOf(Window),
    Tile {
        level: usize,
        row: usize,
        col: usize,
    },
    Ice {
        region: usize,
        budget: usize,
    },
    Classic {
        aoi: [f64; 4],
        limit: usize,
    },
    Semantic {
        aoi: [f64; 4],
    },
    Ranked {
        q: String,
        k: usize,
    },
    Write(Write),
}

impl Op {
    /// The operation's type.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Count(_) => Kind::Count,
            Op::Post(_) => Kind::Post,
            Op::Rows { .. } => Kind::Rows,
            Op::AsOf(_) => Kind::AsOf,
            Op::Tile { .. } => Kind::Tile,
            Op::Ice { .. } => Kind::Ice,
            Op::Classic { .. } => Kind::Classic,
            Op::Semantic { .. } => Kind::Semantic,
            Op::Ranked { .. } => Kind::Ranked,
            Op::Write(_) => Kind::Write,
        }
    }

    /// The raw request. `as_of` is the commit id an [`Op::AsOf`] reads.
    pub fn request(&self, as_of: &str) -> Vec<u8> {
        let sel = |w: &Window| format!("/query?x0={}&y0={}&side={}", w.x0, w.y0, w.side);
        let aoi = |a: &[f64; 4]| format!("minx={}&miny={}&maxx={}&maxy={}", a[0], a[1], a[2], a[3]);
        match self {
            Op::Count(w) => client::get(&sel(w)),
            Op::AsOf(w) => client::get(&format!("{}&asOf={as_of}", sel(w))),
            Op::Post(w) => client::post("/query", &selection_sparql(w.x0, w.y0, w.side)),
            Op::Rows { w, limit, ordered } => client::get(&format!(
                "/query?sparql={}",
                client::encode_component(&w.rows_sparql(*limit, *ordered))
            )),
            Op::Tile { level, row, col } => client::get(&format!("/tiles/{level}/{row}/{col}")),
            Op::Ice { region, budget } => client::get(&format!(
                "/ice/{}?budget={budget}",
                ee_serve::state::ICE_REGIONS[*region]
            )),
            Op::Classic { aoi: a, limit } => client::get(&format!(
                "/catalogue/search?mode=classic&{}&limit={limit}",
                aoi(a)
            )),
            Op::Semantic { aoi: a } => {
                client::get(&format!("/catalogue/search?mode=semantic&{}", aoi(a)))
            }
            Op::Ranked { q, k } => client::get(&format!(
                "/catalogue/search?mode=ranked&q={}&k={k}",
                client::encode_component(q)
            )),
            Op::Write(w) => client::post("/update", &w.text),
        }
    }
}

/// The server's point features, regenerated from the generator's seed:
/// the brute-force reference for every selection.
pub struct Points {
    xy: Vec<(f64, f64)>,
}

impl Points {
    /// Replay `ee_serve::state::point_store`'s coordinate draws.
    pub fn generate(n: usize, seed: u64) -> Points {
        let mut rng = Rng::seed_from(seed);
        let xy = (0..n)
            .map(|_| {
                let x = rng.range_f64(0.0, REGION);
                let y = rng.range_f64(0.0, REGION);
                (x, y)
            })
            .collect();
        Points { xy }
    }

    fn inside(&self, w: &Window) -> impl Iterator<Item = usize> + '_ {
        let (x0, y0, x1, y1) = (w.x0, w.y0, w.x0 + w.side, w.y0 + w.side);
        self.xy
            .iter()
            .enumerate()
            .filter(move |(_, &(x, y))| x > x0 && x < x1 && y > y0 && y < y1)
            .map(|(i, _)| i)
    }

    /// Features strictly inside `w` (`sfWithin` excludes the boundary).
    pub fn count(&self, w: &Window) -> usize {
        self.inside(w).count()
    }

    /// Subject IRIs inside `w`, in the order a row selection returns
    /// them: `ORDER BY ?s` sorts IRIs by their N-Triples form (`<iri>`,
    /// so `f14433` comes before `f144`); the router's canonical merge
    /// sorts by the plain IRI text.
    pub fn subjects(&self, w: &Window, ordered: bool) -> Vec<String> {
        let mut v: Vec<String> = self.inside(w).map(|i| format!("http://e/f{i}")).collect();
        if ordered {
            v.sort_by_cached_key(|s| format!("<{s}>"));
        } else {
            v.sort();
        }
        v
    }
}

/// Segments of a seed's operation stream, one per phase that draws
/// operations: the end-to-end window, the traced replay, the reads that
/// check a restarted server, and the warm-up.
pub const SEGMENT_E2E: u64 = 0;
pub const SEGMENT_REPLAY: u64 = 1;
pub const SEGMENT_CHECK: u64 = 98;
pub const SEGMENT_WARM: u64 = 99;

/// A scheduled operation list.
pub struct Schedule {
    /// Due offsets, ascending.
    pub due: Vec<Duration>,
    /// The operations, parallel to `due`.
    pub ops: Vec<Op>,
}

const VOCAB: [&str; 24] = [
    "radar",
    "optical",
    "sentinel",
    "ground",
    "range",
    "detected",
    "ice",
    "sea",
    "land",
    "cloud",
    "multispectral",
    "slc",
    "grd",
    "s1",
    "s2",
    "s3",
    "ocean",
    "level",
    "product",
    "swath",
    "polar",
    "arctic",
    "water",
    "imagery",
];

/// The browse key pool: ~1k distinct GETs over every cacheable route.
pub fn browse_keys(seed: u64, reference: &AppState) -> Vec<Op> {
    let mut keys = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            for side in [2.5, 5.0, 9.5] {
                keys.push(Op::Count(Window {
                    x0: 1.37 + 8.0 * i as f64,
                    y0: 0.61 + 8.0 * j as f64,
                    side,
                }));
            }
        }
    }
    let ts = reference.tile_size;
    for (level, r) in reference.pyramid.iter().enumerate() {
        for row in 0..r.rows().div_ceil(ts) {
            for col in 0..r.cols().div_ceil(ts) {
                keys.push(Op::Tile { level, row, col });
            }
        }
    }
    for region in 0..ee_serve::state::ICE_REGIONS.len() {
        for b in 0..20 {
            keys.push(Op::Ice {
                region,
                budget: 40_000 + 25_000 * b,
            });
        }
    }
    for i in 0..15 {
        for j in 0..16 {
            let (x, y) = (1.0 + 2.5 * i as f64, 0.5 + 2.4 * j as f64);
            keys.push(Op::Classic {
                aoi: [x, y, x + 3.0, y + 3.0],
                limit: 20,
            });
        }
    }
    for i in 0..10 {
        for j in 0..12 {
            let (x, y) = (0.7 + 3.5 * i as f64, 0.3 + 3.1 * j as f64);
            keys.push(Op::Semantic {
                aoi: [x, y, x + 4.0, y + 4.0],
            });
        }
    }
    let mut rng = Rng::seed_from(seed ^ 0x6b65_7973);
    let mut seen = BTreeSet::new();
    while seen.len() < 120 {
        let a = VOCAB[rng.below(VOCAB.len() as u64) as usize];
        let b = VOCAB[rng.below(VOCAB.len() as u64) as usize];
        let k = 5 + 5 * rng.below(2) as usize;
        if a != b && seen.insert((a, b, k)) {
            keys.push(Op::Ranked {
                q: format!("{a} {b}"),
                k,
            });
        }
    }
    keys
}

/// Cumulative Zipf(1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    let total = acc;
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

fn random_window(rng: &mut Rng, min_side: f64, max_side: f64) -> Window {
    let side = (rng.range_f64(min_side, max_side) * 100.0).round() / 100.0;
    let x0 = (rng.range_f64(0.0, REGION - side) * 1000.0).round() / 1000.0;
    let y0 = (rng.range_f64(0.0, REGION - side) * 1000.0).round() / 1000.0;
    Window { x0, y0, side }
}

/// An insert of a new written feature (outside every read window).
pub fn insert_write(rng: &mut Rng, subject: String, mark: String, search: Option<String>) -> Write {
    let x = rng.range_f64(150.0, 200.0);
    let y = rng.range_f64(150.0, 200.0);
    let mut text = format!(
        "INSERT DATA {{ <{subject}> <http://e/wkind> <http://e/Written> . \
         <{subject}> <http://e/hasGeometry> \"POINT ({x} {y})\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> . \
         <{subject}> <http://e/wmark> \"{mark}\""
    );
    if let Some(doc) = &search {
        text.push_str(&format!(" . <{subject}> <{SEARCH_TEXT_IRI}> \"{doc}\""));
    }
    text.push_str(" }");
    Write {
        subject,
        mark: Some(mark),
        search,
        removed: None,
        text,
        shard: None,
    }
}

/// The window schedule of `workload` for `seconds`, drawn from segment
/// `segment` of the seed's stream. Browse samples `keys` Zipf-skewed
/// (rank order shuffled by the seed) plus a 3% share of repeated POSTs.
pub fn schedule(
    workload: Workload,
    seed: u64,
    segment: u64,
    seconds: f64,
    keys: &[Op],
) -> Schedule {
    let mut rng = Rng::seed_from(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (segment + 1));
    let reads = (workload.read_rate() * seconds) as usize;
    let writes = (workload.write_rate() * seconds) as usize;
    let mut items: Vec<(Duration, Op)> = Vec::with_capacity(reads + writes);
    let read_due = crate::gen::uniform(reads, workload.read_rate(), 0.0);
    match workload {
        Workload::Browse => {
            let cdf = zipf_cdf(keys.len());
            let mut rank_to_key: Vec<usize> = (0..keys.len()).collect();
            let mut shuffle = Rng::seed_from(seed ^ 0x7a69_7066);
            for i in (1..rank_to_key.len()).rev() {
                let j = shuffle.below(i as u64 + 1) as usize;
                rank_to_key.swap(i, j);
            }
            let posts: Vec<Window> = (0..16)
                .map(|_| random_window(&mut shuffle, 2.0, 9.0))
                .collect();
            for at in read_due {
                let op = if rng.below(100) < 3 {
                    Op::Post(posts[rng.below(16) as usize])
                } else {
                    let u = rng.f64();
                    let rank = cdf.partition_point(|&c| c < u).min(keys.len() - 1);
                    keys[rank_to_key[rank]].clone()
                };
                items.push((at, op));
            }
        }
        Workload::Ingest => {
            for (n, at) in read_due.into_iter().enumerate() {
                let roll = rng.below(100);
                let op = if roll < 43 {
                    Op::Count(random_window(&mut rng, 2.0, 9.0))
                } else if roll < 76 {
                    Op::Rows {
                        w: random_window(&mut rng, 2.0, 6.0),
                        limit: 5 + rng.below(21) as usize,
                        ordered: true,
                    }
                } else if roll < 98 {
                    let a = VOCAB[rng.below(VOCAB.len() as u64) as usize];
                    let b = VOCAB[rng.below(VOCAB.len() as u64) as usize];
                    Op::Ranked {
                        // The nonce keeps every ranked query text distinct.
                        q: format!("{a} {b} q{segment}x{n}"),
                        k: 5 + rng.below(11) as usize,
                    }
                } else {
                    Op::AsOf(random_window(&mut rng, 2.0, 9.0))
                };
                items.push((at, op));
            }
            let mut live: VecDeque<(String, String)> = VecDeque::new();
            let write_due =
                crate::gen::uniform(writes, workload.write_rate(), 0.5 / workload.write_rate());
            for (i, at) in write_due.into_iter().enumerate() {
                let w = if i % 5 == 4 && !live.is_empty() {
                    let (subject, mark) = live.pop_front().expect("checked non-empty");
                    Write {
                        text: format!("DELETE DATA {{ <{subject}> <http://e/wmark> \"{mark}\" }}"),
                        subject,
                        mark: None,
                        search: None,
                        removed: Some(mark),
                        shard: None,
                    }
                } else {
                    let subject = format!("http://e/w{segment}x{i}");
                    let mark = format!("m{segment}x{i}");
                    let search = (i % 4 == 1).then(|| {
                        let a = VOCAB[rng.below(VOCAB.len() as u64) as usize];
                        let b = VOCAB[rng.below(VOCAB.len() as u64) as usize];
                        format!("{a} {b} live{segment}x{i}")
                    });
                    live.push_back((subject.clone(), mark.clone()));
                    insert_write(&mut rng, subject, mark, search)
                };
                items.push((at, Op::Write(w)));
            }
        }
        Workload::Routed => {
            for at in read_due {
                let roll = rng.below(100);
                // Routed COUNT windows are E2-sized (side near 10, 1% of
                // the region): the router answers 502 when any shard's
                // COUNT part is empty (see KNOWN_DEFECT_PROBE), which
                // smaller windows hit in most runs.
                let op = if roll < 50 {
                    Op::Count(random_window(&mut rng, 7.0, 10.0))
                } else if roll < 90 {
                    Op::Rows {
                        w: random_window(&mut rng, 2.0, 6.0),
                        limit: 5 + rng.below(21) as usize,
                        ordered: false,
                    }
                } else {
                    let tiles: Vec<&Op> = keys
                        .iter()
                        .filter(|k| matches!(k, Op::Tile { .. }))
                        .collect();
                    tiles[rng.below(tiles.len() as u64) as usize].clone()
                };
                items.push((at, op));
            }
        }
    }
    items.sort_by_key(|(at, _)| *at);
    let (due, ops) = items.into_iter().unzip();
    Schedule { due, ops }
}

/// The post-window write probe of the workloads without window writes:
/// `n` inserts, spread over the shards when `shards > 1`.
pub fn probe_writes(seed: u64, n: usize, shards: usize) -> Vec<Write> {
    let mut rng = Rng::seed_from(seed ^ 0x7072_6f62);
    (0..n)
        .map(|i| {
            let subject = format!("http://e/p{i}");
            let mut w = insert_write(&mut rng, subject.clone(), format!("pm{i}"), None);
            if shards > 1 {
                let spec = ee_rdf::storage::ShardSpec::new(0, shards);
                w.shard = Some(spec.owner(&ee_rdf::term::Term::iri(subject)));
            }
            w
        })
        .collect()
}

/// A window with no features on any shard. Through the router its COUNT
/// is answered 502 (`COUNT shard result has no value`), while the
/// unsharded store answers an empty result. Each routed run sends it once
/// outside the measured schedule and reports the status it got, so the
/// defect shows in every report until it is fixed.
pub const KNOWN_DEFECT_PROBE: Window = Window {
    x0: 10.5,
    y0: 20.25,
    side: 0.01,
};

/// A ranked answer whose check waits for the write replay (its result
/// depends on which `eo:searchText` documents were committed).
pub struct DeferredRanked {
    pub op_index: usize,
    pub q: String,
    pub k: usize,
    pub indexed: u64,
    pub body: Vec<u8>,
}

/// Every check of a run: the brute-force point reference, the reference
/// bodies of the fixed keys, and the state the concurrent checks share.
pub struct Oracle {
    pub points: Points,
    /// Reference body per request target (browse keys and tiles).
    expected: HashMap<Vec<u8>, Arc<Vec<u8>>>,
    /// Commit ids seen in `x-commit` headers, newest last.
    heads: Mutex<VecDeque<String>>,
    /// Ranked answers to check after the run (ingest).
    pub deferred: Mutex<Vec<DeferredRanked>>,
    /// Responses carrying `x-cache: HIT`.
    pub cache_hits: std::sync::atomic::AtomicU64,
    /// GETs answered 2xx.
    pub cache_lookups: std::sync::atomic::AtomicU64,
}

/// Run one raw request through `state`'s handler (`router::dispatch`)
/// in-process and collect its status and body.
pub fn dispatch_body(state: &Arc<AppState>, raw: &[u8]) -> (u16, Vec<u8>) {
    let mut parser = RequestParser::new();
    parser.feed(raw);
    let req = parser
        .poll_request()
        .expect("benchmark requests parse")
        .expect("benchmark requests are complete");
    match dispatch(state, &req, Instant::now() + Duration::from_secs(60), false) {
        Dispatched::Ready(resp) => {
            let status = resp.status;
            (
                status,
                resp.body.collect().expect("in-memory bodies collect"),
            )
        }
        Dispatched::DeadlineExceeded => (504, Vec::new()),
    }
}

/// The value of a COUNT answer. The engine answers a COUNT over no
/// matches with no row at all (`"rows":[],"count":0`), the same as its
/// generic aggregate path; that reads as 0.
fn scalar_count(body: &Json) -> Option<u64> {
    let rows = body.get("rows")?.as_arr()?;
    if rows.is_empty() && body.get("count")?.as_u64()? == 0 {
        return Some(0);
    }
    body.get("rows")?
        .as_arr()?
        .first()?
        .as_arr()?
        .first()?
        .as_str()?
        .parse()
        .ok()
}

fn row_strings(body: &Json) -> Option<Vec<String>> {
    body.get("rows")?
        .as_arr()?
        .iter()
        .map(|r| r.as_arr()?.first()?.as_str().map(str::to_string))
        .collect()
}

impl Oracle {
    /// An oracle over the default data set. `keys` whose answers do not
    /// depend on the point store get reference bodies from `reference`.
    pub fn new(points: Points, reference: &Arc<AppState>, keys: &[Op]) -> Oracle {
        let mut expected = HashMap::new();
        for op in keys {
            if matches!(
                op.kind(),
                Kind::Tile | Kind::Ice | Kind::Classic | Kind::Semantic | Kind::Ranked
            ) {
                let raw = op.request("");
                let (status, body) = dispatch_body(reference, &raw);
                assert_eq!(status, 200, "reference answers {op:?}");
                expected.insert(raw, Arc::new(body));
            }
        }
        Oracle {
            points,
            expected,
            heads: Mutex::new(VecDeque::new()),
            deferred: Mutex::new(Vec::new()),
            cache_hits: Default::default(),
            cache_lookups: Default::default(),
        }
    }

    /// The commit id the next `asOf` read names: the newest head but one
    /// seen so far (a recent commit), else the root commit.
    pub fn as_of_id(&self) -> String {
        let heads = self.heads.lock().expect("heads lock");
        let n = heads.len();
        match n {
            0 => format!("{:016x}", ee_rdf::storage::ROOT_COMMIT_ID),
            1 => heads[0].clone(),
            _ => heads[n - 2].clone(),
        }
    }

    fn note_head(&self, resp: &Resp) {
        if let Some(c) = resp.header("x-commit") {
            let mut heads = self.heads.lock().expect("heads lock");
            if heads.back().map(String::as_str) != Some(c) {
                heads.push_back(c.to_string());
                if heads.len() > 8 {
                    heads.pop_front();
                }
            }
        }
    }

    /// Judge one answer. `raw` is the request that produced it.
    pub fn judge(&self, index: usize, op: &Op, raw: &[u8], resp: &Resp) -> Outcome {
        use std::sync::atomic::Ordering::Relaxed;
        if !(200..300).contains(&resp.status) {
            let body = String::from_utf8_lossy(&resp.body[..resp.body.len().min(160)]).into_owned();
            return Outcome::Status(resp.status, body);
        }
        if raw.starts_with(b"GET") {
            self.cache_lookups.fetch_add(1, Relaxed);
            if resp.header("x-cache") == Some("HIT") {
                self.cache_hits.fetch_add(1, Relaxed);
            }
        }
        self.note_head(resp);
        if let Some(want) = self.expected.get(raw) {
            return if **want == resp.body {
                Outcome::Ok
            } else {
                Outcome::Wrong(format!("{:?}: body differs from the reference", op.kind()))
            };
        }
        let text = match std::str::from_utf8(&resp.body) {
            Ok(t) => t,
            Err(_) => return Outcome::Wrong("non-UTF-8 body".into()),
        };
        let parsed = match json::parse(text) {
            Ok(j) => j,
            Err(e) => return Outcome::Wrong(format!("unparsable body: {e}")),
        };
        match op {
            Op::Count(w) | Op::Post(w) | Op::AsOf(w) => {
                let want = self.points.count(w) as u64;
                match scalar_count(&parsed) {
                    Some(got) if got == want => Outcome::Ok,
                    got => Outcome::Wrong(format!("count {got:?}, reference {want} for {w:?}")),
                }
            }
            Op::Rows { w, limit, ordered } => {
                let all = self.points.subjects(w, *ordered);
                let want = &all[..all.len().min(*limit)];
                let count = parsed.get("count").and_then(Json::as_u64);
                match row_strings(&parsed) {
                    Some(rows) if rows == want && count == Some(want.len() as u64) => Outcome::Ok,
                    _ => Outcome::Wrong(format!("rows differ from the reference for {w:?}")),
                }
            }
            Op::Ranked { q, k } => match parsed.get("indexed").and_then(Json::as_u64) {
                Some(indexed) => {
                    self.deferred
                        .lock()
                        .expect("deferred lock")
                        .push(DeferredRanked {
                            op_index: index,
                            q: q.clone(),
                            k: *k,
                            indexed,
                            body: resp.body.clone(),
                        });
                    Outcome::Ok
                }
                None => Outcome::Wrong("ranked answer without indexed".into()),
            },
            Op::Write(_) => match parsed.get("generation") {
                Some(_) => Outcome::Ok,
                None => Outcome::Wrong("update answer without generation".into()),
            },
            other => Outcome::Wrong(format!("no reference for {other:?}")),
        }
    }
}

/// The written state a list of acknowledged writes must leave behind:
/// live `(subject, mark)` pairs, inserted subjects, search documents.
#[derive(Debug, Default, PartialEq)]
pub struct Written {
    pub marks: BTreeSet<(String, String)>,
    pub subjects: BTreeSet<String>,
    pub docs: BTreeSet<(String, String)>,
}

impl Written {
    /// Fold acknowledged writes, in commit order.
    pub fn fold<'a>(writes: impl IntoIterator<Item = &'a Write>) -> Written {
        let mut out = Written::default();
        for w in writes {
            match (&w.mark, &w.removed) {
                (Some(mark), _) => {
                    out.marks.insert((w.subject.clone(), mark.clone()));
                    out.subjects.insert(w.subject.clone());
                    if let Some(doc) = &w.search {
                        out.docs.insert((w.subject.clone(), doc.clone()));
                    }
                }
                (None, Some(mark)) => {
                    out.marks.remove(&(w.subject.clone(), mark.clone()));
                }
                (None, None) => {}
            }
        }
        out
    }

    /// The three queries that read the written state back.
    pub fn queries() -> [&'static str; 3] {
        [
            "SELECT ?s ?m WHERE { ?s <http://e/wmark> ?m }",
            "SELECT ?s WHERE { ?s <http://e/wkind> <http://e/Written> }",
            "SELECT ?s ?t WHERE { ?s <http://extremeearth.eu/ont/eo#searchText> ?t }",
        ]
    }

    /// Compare the three query answers (in [`Written::queries`] order)
    /// with this state; `Err` names the first difference.
    pub fn check(&self, answers: &[Vec<u8>; 3]) -> Result<(), String> {
        let rows = |body: &[u8]| -> Result<Vec<Vec<String>>, String> {
            let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
            let parsed = json::parse(text).map_err(|e| format!("unparsable body: {e}"))?;
            parsed
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("no rows")?
                .iter()
                .map(|r| {
                    r.as_arr()
                        .ok_or("row not an array")?
                        .iter()
                        .map(|t| t.as_str().map(str::to_string).ok_or("non-string term"))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()
                .map_err(str::to_string)
        };
        let pairs = |rows: Vec<Vec<String>>| -> BTreeSet<(String, String)> {
            rows.into_iter()
                .map(|r| (r[0].clone(), r[1].clone()))
                .collect()
        };
        let marks = pairs(rows(&answers[0])?);
        if marks != self.marks {
            return Err(format!(
                "marks: {} visible, {} acknowledged ({} missing)",
                marks.len(),
                self.marks.len(),
                self.marks.difference(&marks).count()
            ));
        }
        let subjects: BTreeSet<String> = rows(&answers[1])?
            .into_iter()
            .map(|r| r[0].clone())
            .collect();
        if subjects != self.subjects {
            return Err(format!(
                "features: {} visible, {} acknowledged",
                subjects.len(),
                self.subjects.len()
            ));
        }
        let docs = pairs(rows(&answers[2])?);
        if docs != self.docs {
            return Err(format!(
                "search docs: {} visible, {} acknowledged",
                docs.len(),
                self.docs.len()
            ));
        }
        Ok(())
    }
}

/// Check every deferred ranked answer of an ingest run against a fresh
/// reference state that replays the acknowledged writes in commit order.
/// The server reads the index size after searching, so a document
/// committed in between makes an answer one document behind its
/// `indexed` field; such an answer must equal the reference one
/// document earlier (with that field patched). Returns the op indices of
/// the answers that match neither.
pub fn check_deferred_ranked(
    reference: &Arc<AppState>,
    writes: &[Write],
    mut answers: Vec<DeferredRanked>,
) -> Vec<(usize, String)> {
    answers.sort_by_key(|a| a.indexed);
    let mut by_indexed: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, a) in answers.iter().enumerate() {
        by_indexed.entry(a.indexed).or_default().push(i);
    }
    let ranked_raw = |a: &DeferredRanked| {
        Op::Ranked {
            q: a.q.clone(),
            k: a.k,
        }
        .request("")
    };
    let mut verdict: Vec<Option<bool>> = vec![None; answers.len()];
    // One document behind: candidate bodies computed at state n - 1.
    let mut behind: HashMap<usize, Vec<u8>> = HashMap::new();
    let visit =
        |indexed: u64, verdict: &mut Vec<Option<bool>>, behind: &mut HashMap<usize, Vec<u8>>| {
            for &i in by_indexed.get(&indexed).into_iter().flatten() {
                let (_, body) = dispatch_body(reference, &ranked_raw(&answers[i]));
                let ok = body == answers[i].body || behind.get(&i) == Some(&answers[i].body);
                verdict[i] = Some(ok);
            }
            for &i in by_indexed.get(&(indexed + 1)).into_iter().flatten() {
                let (_, body) = dispatch_body(reference, &ranked_raw(&answers[i]));
                let text = String::from_utf8_lossy(&body).replace(
                    &format!("\"indexed\":{indexed},"),
                    &format!("\"indexed\":{},", indexed + 1),
                );
                behind.insert(i, text.into_bytes());
            }
        };
    let mut indexed = reference.ranked_indexed() as u64;
    visit(indexed, &mut verdict, &mut behind);
    for w in writes {
        let update = ee_rdf::parser::parse_update(&w.text).expect("benchmark updates parse");
        reference.commit_update(&update).expect("reference commit");
        let now = reference.ranked_indexed() as u64;
        if now != indexed {
            indexed = now;
            visit(indexed, &mut verdict, &mut behind);
        }
    }
    answers
        .iter()
        .zip(verdict)
        .filter(|(_, v)| *v != Some(true))
        .map(|(a, v)| {
            let why = if v.is_none() {
                format!(
                    "ranked answer indexed {} matches no replayed state",
                    a.indexed
                )
            } else {
                format!("ranked answer for {:?} differs from the reference", a.q)
            };
            (a.op_index, why)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_segments() {
        let a = schedule(Workload::Ingest, 7, 0, 2.0, &[]);
        let b = schedule(Workload::Ingest, 7, 0, 2.0, &[]);
        let c = schedule(Workload::Ingest, 7, 1, 2.0, &[]);
        assert_eq!(a.due, b.due);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_ne!(format!("{:?}", a.ops), format!("{:?}", c.ops));
        assert_eq!(a.ops.iter().filter(|o| o.kind() == Kind::Write).count(), 40);
        assert!(a.due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn written_state_folds_inserts_and_deletes() {
        let mut rng = Rng::seed_from(1);
        let a = insert_write(
            &mut rng,
            "http://e/a".into(),
            "ma".into(),
            Some("doc".into()),
        );
        let del = Write {
            subject: "http://e/a".into(),
            mark: None,
            search: None,
            removed: Some("ma".into()),
            text: String::new(),
            shard: None,
        };
        let w = Written::fold([&a, &del]);
        assert!(w.marks.is_empty());
        assert_eq!(w.subjects.len(), 1);
        assert_eq!(w.docs.len(), 1);
    }
}
