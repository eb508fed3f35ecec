//! The traced run: replay the workload's seeded schedule in-process and
//! time the public calls of each layer.
//!
//! Single-node workloads replay against an [`AppState`] built from the
//! same `DataConfig` (durable for `ingest`, with a committer thread
//! beside the reader). The request path is rebuilt from the layers'
//! public functions: `http` parse → `cache` key + lookup → `state` guard
//! → `rdf` parse / plan (through a mirror of the server's prepared-plan
//! cache: same canonical key, cleared on every effective commit) → exec
//! → row JSON → `cache` put → `http` encode. Tiles, ice and catalogue
//! requests run through `router::dispatch`; the catalogue engine calls
//! are also timed on their own. The `storage` layer is timed on a
//! sidecar `Store` that applies the same commits. `routed` replays
//! against the live shards through `ShardPool` and the merge.
//!
//! The replay draws its own segment of the seed's schedule and traces
//! every other request; the untraced half is the baseline for
//! `server.overhead_us` and `trace.overhead_pct`.

use crate::gen::{median, sleep_until, tighten_timer_slack};
use crate::ops::{schedule, Kind, Op, Workload, SEGMENT_REPLAY};
use crate::trace::{self, Recorder, Span};
use ee_rdf::plan::Plan;
use ee_rdf::storage::{Durability, Store};
use ee_rdf::store::StoreView;
use ee_rdf::term::Term;
use ee_serve::cache::{CachedBody, ShardedLru};
use ee_serve::http::{
    frame_chunk, ChunkedSlices, Request, RequestParser, Response, CHUNK_TERMINATOR,
};
use ee_serve::state::{selection_sparql, AppState, DataConfig};
use ee_util::json::Json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("http.bytes_out", "bytes"),
    ("http.self_us_per_op", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.sweep_us", "us"),
    ("cache.swept", "count"),
    ("cache.self_us_per_op", "us"),
    ("state.lock_wait_us", "us"),
    ("state.plan_hit_ratio", "ratio"),
    ("state.novelty_us", "us"),
    ("state.commit_us", "us"),
    ("state.self_us_per_op", "us"),
    ("rdf.parse_us", "us"),
    ("rdf.plan_us", "us"),
    ("rdf.exec_us", "us"),
    ("rdf.exec_1t_us", "us"),
    ("rdf.serialize_us", "us"),
    ("rdf.rows_out", "count"),
    ("rdf.rows_touched_per_row", "ratio"),
    ("rdf.peak_resident_rows", "count"),
    ("rdf.self_us_per_op", "us"),
    ("storage.evaluate_us", "us"),
    ("storage.commit_us", "us"),
    ("storage.bytes_per_commit", "bytes"),
    ("storage.as_of_us", "us"),
    ("storage.self_us_per_op", "us"),
    ("catalogue.classic_us", "us"),
    ("catalogue.ranked_us", "us"),
    ("catalogue.semantic_us", "us"),
    ("catalogue.self_us_per_op", "us"),
    ("federation.scatter_us", "us"),
    ("federation.straggler_us", "us"),
    ("federation.hedged", "count"),
    ("federation.retried", "count"),
    ("federation.partial", "count"),
    ("federation.self_us_per_op", "us"),
    ("merge.strategy_us", "us"),
    ("merge.parse_us", "us"),
    ("merge.merge_us", "us"),
    ("merge.emit_us", "us"),
    ("merge.bytes_in", "bytes"),
    ("merge.self_us_per_op", "us"),
    ("handler.self_us_per_op", "us"),
    ("server.overhead_us", "us"),
    ("server.overhead_us.count", "us"),
    ("server.overhead_us.rows", "us"),
    ("server.overhead_us.post", "us"),
    ("server.overhead_us.asof", "us"),
    ("server.overhead_us.tile", "us"),
    ("server.overhead_us.ice", "us"),
    ("server.overhead_us.classic", "us"),
    ("server.overhead_us.semantic", "us"),
    ("server.overhead_us.ranked", "us"),
    ("trace.overhead_pct", "%"),
];

/// Layers whose summed self time per replayed request is reported.
const LAYERS: [&str; 9] = [
    "http",
    "cache",
    "state",
    "rdf",
    "storage",
    "catalogue",
    "federation",
    "merge",
    "handler",
];

/// What the traced run needs from the end-to-end run.
pub struct Input<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub keys: &'a [Op],
    /// End-to-end read p50 (µs), overall and per operation type.
    pub e2e_read_p50: f64,
    pub e2e_p50_by_kind: BTreeMap<Kind, f64>,
    /// Live shard addresses (routed).
    pub shards: Vec<SocketAddr>,
    /// Scratch directory inside the checkout.
    pub work: &'a Path,
}

/// Counters gathered beside the spans of one replay.
#[derive(Default)]
struct Counts {
    bytes_out: u64,
    rows_out: u64,
    rows_touched: u64,
    peaks: Vec<f64>,
    plan_hits: u64,
    plan_misses: u64,
    swept: u64,
    commits: u64,
    stragglers: Vec<f64>,
    hedged: u64,
    retried: u64,
    partial: u64,
    merge_bytes_in: u64,
    cache_hits: u64,
    cache_lookups: u64,
    /// Request time (µs) per operation type, of the untraced [0] and
    /// traced [1] requests.
    request_us: [BTreeMap<Kind, Vec<f64>>; 2],
}

impl Counts {
    fn note_request(&mut self, kind: Kind, traced: bool, took: Duration) {
        self.request_us[usize::from(traced)]
            .entry(kind)
            .or_default()
            .push(took.as_secs_f64() * 1e6);
    }
}

/// The single-node engines under replay.
struct Node {
    state: Arc<AppState>,
    lru: ShardedLru,
    /// Mirror of the server's prepared-plan cache.
    plans: Mutex<HashMap<String, Arc<Plan>>>,
    /// Sidecar store for the `storage` layer (ingest).
    sidecar: Option<Mutex<Store>>,
    /// Recent head ids (state, sidecar) for `asOf` reads.
    heads: Mutex<VecDeque<(u64, u64)>>,
}

fn term_json(t: Option<&Term>) -> Json {
    match t {
        None => Json::Null,
        Some(Term::Iri(iri)) => Json::Str(iri.clone()),
        Some(Term::Literal { lexical, .. }) => Json::Str(lexical.clone()),
    }
}

/// The `/query` body the server streams, built in one piece.
fn serialize(vars: &[String], rows: &[Vec<Option<Term>>], limit: usize) -> Vec<u8> {
    let vars = Json::Arr(vars.iter().map(|v| Json::Str(v.clone())).collect());
    let mut out = format!("{{\"vars\":{},\"rows\":[", vars.emit());
    for (i, row) in rows.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&Json::Arr(row.iter().map(|t| term_json(t.as_ref())).collect()).emit());
    }
    out.push_str(&format!(
        "],\"count\":{}}}",
        Json::Num(rows.len() as f64).emit()
    ));
    out.into_bytes()
}

/// Wire bytes of a response: head plus body, chunked when `streamed`.
fn encode(status: u16, body: &[u8], streamed: bool) -> Vec<u8> {
    if streamed {
        let resp = Response::streamed(
            status,
            "application/json",
            Box::new(ChunkedSlices::new(Vec::new())),
        );
        let mut out = resp.head_bytes(true);
        for chunk in body.chunks(16 * 1024) {
            frame_chunk(chunk, &mut out);
        }
        out.extend_from_slice(CHUNK_TERMINATOR);
        out
    } else {
        let resp = Response::octets(status, body.to_vec());
        let mut out = resp.head_bytes(true);
        out.extend_from_slice(body);
        out
    }
}

fn parse_request(rec: &mut Recorder, raw: &[u8]) -> Request {
    rec.span("http.parse", || {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser.poll_request()
    })
    .expect("benchmark requests parse")
    .expect("benchmark requests are complete")
}

/// The SPARQL text and row cap of a `/query` operation.
fn query_text(op: &Op) -> Option<String> {
    match op {
        Op::Count(w) | Op::Post(w) | Op::AsOf(w) => Some(selection_sparql(w.x0, w.y0, w.side)),
        Op::Rows { w, limit, ordered } => Some(w.rows_sparql(*limit, *ordered)),
        _ => None,
    }
}

impl Node {
    fn as_of_ids(&self) -> (u64, u64) {
        let heads = self.heads.lock().expect("heads lock");
        match heads.len() {
            0 => (self.state.head_commit(), ee_rdf::storage::ROOT_COMMIT_ID),
            1 => heads[0],
            n => heads[n - 2],
        }
    }

    /// The prepared-plan `/query` path; returns the body.
    fn query(&self, rec: &mut Recorder, counts: &mut Counts, sparql: &str) -> (u16, Vec<u8>) {
        let guard = rec.span("state.lock_wait", || self.state.store());
        let canon = sparql.split_whitespace().collect::<Vec<_>>().join(" ");
        let cached = self
            .plans
            .lock()
            .expect("plan mirror lock")
            .get(&canon)
            .cloned();
        let plan = match cached {
            Some(p) => {
                counts.plan_hits += 1;
                p
            }
            None => {
                counts.plan_misses += 1;
                let q = rec
                    .span("rdf.parse", || ee_rdf::parser::parse_query(sparql))
                    .expect("benchmark queries parse");
                let p = Arc::new(
                    rec.span("rdf.plan", || ee_rdf::plan::plan(&guard, &q))
                        .expect("benchmark queries plan"),
                );
                self.plans
                    .lock()
                    .expect("plan mirror lock")
                    .insert(canon, Arc::clone(&p));
                p
            }
        };
        let threads = ee_util::par::available_threads();
        let (vars, rows) = rec.span("rdf.exec", || {
            let mut core = ee_rdf::exec::stream_plan_shared(&guard, Arc::clone(&plan), threads)
                .expect("benchmark queries run");
            let vars = core.vars().to_vec();
            let mut rows = Vec::new();
            while let Some(batch) = core.next_batch(&guard) {
                rows.extend(batch);
            }
            counts.rows_touched += core.rows_touched();
            counts.peaks.push(core.peak_resident_rows() as f64);
            (vars, rows)
        });
        drop(guard);
        counts.rows_out += rows.len() as u64;
        let body = rec.span("rdf.serialize", || serialize(&vars, &rows, 1000));
        (200, body)
    }

    /// The versioned (`asOf`) read path.
    fn as_of(
        &self,
        rec: &mut Recorder,
        counts: &mut Counts,
        sparql: &str,
        id: u64,
    ) -> (u16, Vec<u8>) {
        let Some(novelty) = rec.span("state.novelty", || self.state.novelty_for(id)) else {
            return (404, Vec::new());
        };
        let guard = rec.span("state.lock_wait", || self.state.store());
        let q = rec
            .span("rdf.parse", || ee_rdf::parser::parse_query(sparql))
            .expect("benchmark queries parse");
        let view = StoreView::with_novelty(&guard, &novelty);
        let plan = rec
            .span("rdf.plan", || ee_rdf::plan::plan_view(view, &q))
            .expect("benchmark queries plan");
        let threads = ee_util::par::available_threads();
        let sols = rec
            .span("rdf.exec", || {
                ee_rdf::exec::execute_plan_view(view, Arc::new(plan), threads)
            })
            .expect("benchmark queries run");
        drop(guard);
        counts.rows_out += sols.rows.len() as u64;
        let body = rec.span("rdf.serialize", || serialize(&sols.vars, &sols.rows, 1000));
        (200, body)
    }

    /// One read request through the rebuilt server path. Returns its
    /// duration.
    fn read(&self, rec: &mut Recorder, counts: &mut Counts, op: &Op) -> Duration {
        let (state_id, sidecar_id) = self.as_of_ids();
        let raw = op.request(&format!("{state_id:016x}"));
        let mut executed = false;
        let t0 = Instant::now();
        let open = rec.enter("request");
        let req = parse_request(rec, &raw);
        let (key, hit) = rec.span("cache.get", || {
            match ee_serve::router::cache_key(
                &req,
                self.state.head_commit(),
                self.state.search_generation(),
            ) {
                Some(k) => {
                    let hit = self.lru.get(&k);
                    (Some(k), hit)
                }
                None => (None, None),
            }
        });
        let wire = if let Some(hit) = hit {
            rec.span("http.encode", || encode(hit.status, &hit.body, false))
        } else {
            let (status, body, streamed) = match op {
                Op::AsOf(_) => {
                    let (s, b) =
                        self.as_of(rec, counts, &query_text(op).expect("a query"), state_id);
                    (s, b, false)
                }
                Op::Count(_) | Op::Post(_) | Op::Rows { .. } => {
                    let (s, b) = self.query(rec, counts, &query_text(op).expect("a query"));
                    executed = true;
                    (s, b, true)
                }
                _ => {
                    let name = match op.kind() {
                        Kind::Tile => "handler.tiles",
                        Kind::Ice => "handler.ice",
                        _ => "handler.catalogue",
                    };
                    let (s, b) = rec.span(name, || crate::ops::dispatch_body(&self.state, &raw));
                    (s, b, op.kind() == Kind::Tile)
                }
            };
            if let Some(key) = key.filter(|_| status == 200 && body.len() <= 256 * 1024) {
                let value = Arc::new(CachedBody {
                    status,
                    content_type: "application/json".into(),
                    headers: Vec::new(),
                    body: body.clone(),
                });
                rec.span("cache.put", || self.lru.put(key, value));
            }
            rec.span("http.encode", || encode(status, &body, streamed))
        };
        rec.exit(open);
        let took = t0.elapsed();
        counts.bytes_out += wire.len() as u64;
        // Side measurements, outside the request span: the engine calls
        // behind the catalogue handler, exec at one thread (for queries
        // the request executed), and the storage layer's own time travel.
        match op {
            Op::Classic { aoi, .. } => {
                let env = ee_geo::Envelope::new(aoi[0], aoi[1], aoi[2], aoi[3]);
                let _ = rec.span("catalogue.classic", || {
                    self.state.classic_search(env).map(|h| h.len())
                });
            }
            Op::Ranked { q, k } => {
                rec.span("catalogue.ranked", || self.state.ranked_search(q, *k).len());
            }
            Op::Semantic { aoi } => {
                let [minx, miny, maxx, maxy] = *aoi;
                let q = format!(
                    "PREFIX eo: <http://extremeearth.eu/ont/eo#> \
                     SELECT (COUNT(?p) AS ?n) WHERE {{ ?p eo:footprint ?f . \
                     FILTER(geof:sfIntersects(?f, \"POLYGON (({minx} {miny}, {maxx} {miny}, {maxx} {maxy}, {minx} {maxy}, {minx} {miny}))\"^^geo:wktLiteral)) }}"
                );
                let _ = rec.span("catalogue.semantic", || {
                    self.state.semantic.query(&q).map(|s| s.len())
                });
            }
            Op::Count(_) | Op::Post(_) | Op::Rows { .. } if executed => {
                let sparql = query_text(op).expect("a query");
                let guard = self.state.store();
                if let Ok(q) = ee_rdf::parser::parse_query(&sparql) {
                    if let Ok(plan) = ee_rdf::plan::plan(&guard, &q) {
                        rec.span("rdf.exec_1t", || {
                            let mut core =
                                ee_rdf::exec::stream_plan_shared(&guard, Arc::new(plan), 1)
                                    .expect("benchmark queries run");
                            while core.next_batch(&guard).is_some() {}
                        });
                    }
                }
            }
            Op::AsOf(_) => {
                if let Some(sidecar) = &self.sidecar {
                    let mut store = sidecar.lock().expect("sidecar lock");
                    rec.span("storage.as_of", || store.as_of(sidecar_id).is_some());
                }
            }
            _ => {}
        }
        took
    }

    /// One commit: the state's commit path, the post-commit cache sweep,
    /// and the same delta through the sidecar store.
    fn write(&self, rec: &mut Recorder, counts: &mut Counts, text: &str) {
        let update = ee_rdf::parser::parse_update(text).expect("benchmark updates parse");
        let open = rec.enter("write");
        let before = self.state.head_commit();
        rec.span("state.commit", || self.state.commit_update(&update))
            .expect("replay commit");
        if self.state.head_commit() != before {
            self.plans.lock().expect("plan mirror lock").clear();
            counts.swept += rec.span("cache.sweep", || self.lru.sweep_unpinned()) as u64;
        }
        rec.exit(open);
        counts.commits += 1;
        let sidecar_head = match &self.sidecar {
            Some(sidecar) => {
                let mut store = sidecar.lock().expect("sidecar lock");
                let delta = rec
                    .span("storage.evaluate", || {
                        ee_rdf::update::evaluate_update(&store, &update)
                    })
                    .expect("sidecar evaluate");
                rec.span("storage.commit", || store.commit_delta(delta))
                    .expect("sidecar commit");
                store.head_commit()
            }
            None => ee_rdf::storage::ROOT_COMMIT_ID,
        };
        let mut heads = self.heads.lock().expect("heads lock");
        heads.push_back((self.state.head_commit(), sidecar_head));
        if heads.len() > 8 {
            heads.pop_front();
        }
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
fn merge_spans(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

fn dir_bytes(dir: &Path, files: &[&str]) -> u64 {
    files
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// The share of the run length the traced replay lasts.
const REPLAY_SHARE: f64 = 0.5;

/// Whether the replay traces request `n`: every other one, so the
/// untraced half measures the same mix at the same time and the
/// difference is the tracing overhead.
fn traced(n: u64) -> bool {
    n.is_multiple_of(2)
}

/// The replay of a single-node workload: reads on this thread, commits
/// (always traced) on a committer thread.
fn replay_node(input: &Input, node: &Node, epoch: Instant) -> (Vec<Span>, Counts) {
    let sched = schedule(
        input.workload,
        input.seed,
        SEGMENT_REPLAY,
        input.seconds * REPLAY_SHARE,
        input.keys,
    );
    let (hits0, misses0) = (node.lru.hits(), node.lru.misses());
    let next_id = AtomicU64::new(0);
    let start = Instant::now();
    let (reader, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            tighten_timer_slack();
            let mut rec = Recorder::new(true, epoch);
            let mut counts = Counts::default();
            for (at, op) in sched.due.iter().zip(&sched.ops) {
                if let Op::Write(w) = op {
                    sleep_until(start + *at);
                    rec.set_request(next_id.fetch_add(1, Ordering::Relaxed));
                    node.write(&mut rec, &mut counts, &w.text);
                }
            }
            (rec.into_spans(), counts)
        });
        tighten_timer_slack();
        let mut rec = Recorder::new(true, epoch);
        let mut counts = Counts::default();
        for (at, op) in sched.due.iter().zip(&sched.ops) {
            if matches!(op, Op::Write(_)) {
                continue;
            }
            sleep_until(start + *at);
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            rec.set_enabled(traced(id));
            rec.set_request(id);
            let took = node.read(&mut rec, &mut counts, op);
            counts.note_request(op.kind(), traced(id), took);
        }
        (
            (rec.into_spans(), counts),
            writer.join().expect("committer thread panicked"),
        )
    });
    let (reader_spans, mut counts) = reader;
    let (writer_spans, wcounts) = writer;
    counts.swept = wcounts.swept;
    counts.commits = wcounts.commits;
    counts.cache_hits = node.lru.hits() - hits0;
    counts.cache_lookups = counts.cache_hits + node.lru.misses() - misses0;
    (merge_spans(vec![reader_spans, writer_spans]), counts)
}

/// The replay of the routed workload against the live shards.
fn replay_routed(
    input: &Input,
    pool: &ee_federation::remote::ShardPool,
    epoch: Instant,
) -> (Vec<Span>, Counts) {
    let sched = schedule(
        input.workload,
        input.seed,
        SEGMENT_REPLAY,
        input.seconds * REPLAY_SHARE,
        input.keys,
    );
    let ring = ee_util::ring::HashRing::new(input.shards.len());
    let mut rec = Recorder::new(true, epoch);
    let mut counts = Counts::default();
    tighten_timer_slack();
    let start = Instant::now();
    for (n, (at, op)) in sched.due.iter().zip(&sched.ops).enumerate() {
        sleep_until(start + *at);
        let id = n as u64;
        rec.set_enabled(traced(id));
        rec.set_request(id);
        let raw = op.request("");
        let t0 = Instant::now();
        let open = rec.enter("request");
        let req = parse_request(&mut rec, &raw);
        let (report, body, streamed) = match op {
            Op::Tile { .. } => {
                let owner = ring.shard_of(&req.path);
                let wire = format!("GET {} HTTP/1.1\r\nhost: ee-router\r\n\r\n", req.path);
                let report = rec.span("federation.scatter", || {
                    pool.scatter(wire.as_bytes(), &[owner])
                });
                let body = report
                    .parts
                    .first()
                    .and_then(|p| p.as_ref())
                    .map(|p| p.body.clone())
                    .unwrap_or_default();
                (report, body, false)
            }
            _ => {
                let sparql = query_text(op).expect("routed reads are queries");
                let strategy = rec
                    .span("merge.strategy", || ee_rdf::merge::strategy_for(&sparql))
                    .expect("routable query");
                let targets = ee_federation::select_shards(&sparql, input.shards.len())
                    .expect("routable query");
                let scattered = ee_rdf::merge::scatter_text(&sparql);
                let wire = format!(
                    "POST /query?limit=1000 HTTP/1.1\r\nhost: ee-router\r\ncontent-length: {}\r\n\r\n{scattered}",
                    scattered.len()
                );
                let report = rec.span("federation.scatter", || {
                    pool.scatter(wire.as_bytes(), &targets)
                });
                let parts: Vec<&ee_federation::ShardPart> = report.parts.iter().flatten().collect();
                counts.merge_bytes_in += parts.iter().map(|p| p.body.len() as u64).sum::<u64>();
                let results: Vec<ee_rdf::merge::QueryResult> = rec.span("merge.parse", || {
                    parts
                        .iter()
                        .filter_map(|p| {
                            ee_rdf::merge::QueryResult::parse(std::str::from_utf8(&p.body).ok()?)
                                .ok()
                        })
                        .collect()
                });
                let body = if results.is_empty() {
                    Vec::new()
                } else {
                    let merged = rec
                        .span("merge.merge", || {
                            ee_rdf::merge::merge(&results, &strategy, 1000)
                        })
                        .expect("shard answers merge");
                    rec.span("merge.emit", || merged.emit()).into_bytes()
                };
                (report, body, true)
            }
        };
        let lat: Vec<f64> = report
            .parts
            .iter()
            .flatten()
            .map(|p| p.latency.as_secs_f64() * 1e6)
            .collect();
        if lat.len() > 1 {
            let (lo, hi) = lat
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            counts.stragglers.push(hi - lo);
        }
        counts.hedged += report.hedged;
        counts.retried += report.retried;
        counts.partial += u64::from(report.incomplete);
        let wire = rec.span("http.encode", || encode(200, &body, streamed));
        rec.exit(open);
        counts.bytes_out += wire.len() as u64;
        counts.note_request(op.kind(), traced(id), t0.elapsed());
    }
    (rec.into_spans(), counts)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Run the traced replays and compute every per-layer metric.
pub fn run(input: &Input) -> Result<BTreeMap<&'static str, f64>, String> {
    let epoch = Instant::now();
    let mut sidecar_dir = None;
    let ((spans, counts), bytes_per_commit) = match input.workload {
        Workload::Routed => {
            let backends = input
                .shards
                .iter()
                .enumerate()
                .map(|(i, &addr)| ee_federation::remote::ShardBackend {
                    name: format!("shard-{i}"),
                    addr,
                })
                .collect();
            let pool = ee_federation::remote::ShardPool::new(backends, Default::default());
            (replay_routed(input, &pool, epoch), 0)
        }
        Workload::Browse | Workload::Ingest => {
            let config = DataConfig::default();
            let (state, sidecar) = if input.workload == Workload::Ingest {
                let dir = input.work.join("trace-store");
                let side = input.work.join("trace-sidecar");
                for d in [&dir, &side] {
                    let _ = std::fs::remove_dir_all(d);
                }
                let state = AppState::build_durable(config.clone(), &dir)
                    .map_err(|e| format!("trace store: {e}"))?;
                let points = ee_serve::state::point_store(config.points, config.seed);
                let store = Store::create(&side, points, Durability::from_env())
                    .map_err(|e| format!("sidecar store: {e}"))?;
                sidecar_dir = Some(side);
                (state, Some(Mutex::new(store)))
            } else {
                (AppState::build(config), None)
            };
            let node = Node {
                state: Arc::new(state),
                lru: ShardedLru::with_max_entry_bytes(8, 512, Duration::from_secs(60), 256 * 1024),
                plans: Mutex::new(HashMap::new()),
                sidecar,
                heads: Mutex::new(VecDeque::new()),
            };
            // Warm the response cache like the end-to-end warm-up.
            let mut quiet = Recorder::new(false, epoch);
            let mut scratch = Counts::default();
            for op in input.keys {
                node.read(&mut quiet, &mut scratch, op);
            }
            let log_bytes = || {
                sidecar_dir
                    .as_ref()
                    .map_or(0, |d| dir_bytes(d, &["wal.log", "commits.log"]))
            };
            let before = log_bytes();
            let replayed = replay_node(input, &node, epoch);
            // The sidecar's log growth per commit.
            let per_commit = (log_bytes() - before) / replayed.1.commits.max(1);
            (replayed, per_commit)
        }
    };
    let spans_path = input.work.join(format!(
        "spans-{}-{}.jsonl",
        input.workload.name(),
        input.seed
    ));
    trace::write_spans(&spans_path, &spans).map_err(|e| format!("cannot write spans: {e}"))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        spans_path.display()
    );

    let named = trace::by_name(&spans);
    let med = |name: &str| or_zero(named.get(name).map_or(f64::NAN, |v| median(v)));
    let count =
        |m: &BTreeMap<Kind, Vec<f64>>| m.values().map(Vec::len).sum::<usize>().max(1) as f64;
    let [untraced, traced] = &counts.request_us;
    let requests = count(untraced) + count(traced);
    let traced_requests = count(traced);
    let mut m: BTreeMap<&'static str, f64> = METRICS.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |k: &'static str, v: f64| {
        m.insert(k, or_zero(v));
    };
    set("http.parse_us", med("http.parse"));
    set("http.encode_us", med("http.encode"));
    set("http.bytes_out", counts.bytes_out as f64 / requests);
    set("cache.get_us", med("cache.get"));
    set("cache.put_us", med("cache.put"));
    if counts.cache_lookups > 0 {
        set(
            "cache.hit_ratio",
            counts.cache_hits as f64 / counts.cache_lookups as f64,
        );
    }
    set("cache.sweep_us", med("cache.sweep"));
    if counts.commits > 0 {
        set("cache.swept", counts.swept as f64 / counts.commits as f64);
    }
    set(
        "state.lock_wait_us",
        named.get("state.lock_wait").map_or(0.0, |v| mean(v)),
    );
    let plan_lookups = counts.plan_hits + counts.plan_misses;
    if plan_lookups > 0 {
        set(
            "state.plan_hit_ratio",
            counts.plan_hits as f64 / plan_lookups as f64,
        );
    }
    set("state.novelty_us", med("state.novelty"));
    set("state.commit_us", med("state.commit"));
    set("rdf.parse_us", med("rdf.parse"));
    set("rdf.plan_us", med("rdf.plan"));
    set("rdf.exec_us", med("rdf.exec"));
    set("rdf.exec_1t_us", med("rdf.exec_1t"));
    set("rdf.serialize_us", med("rdf.serialize"));
    set("rdf.rows_out", counts.rows_out as f64 / requests);
    if counts.rows_out > 0 {
        set(
            "rdf.rows_touched_per_row",
            counts.rows_touched as f64 / counts.rows_out as f64,
        );
    }
    set("rdf.peak_resident_rows", or_zero(median(&counts.peaks)));
    set("storage.evaluate_us", med("storage.evaluate"));
    set("storage.commit_us", med("storage.commit"));
    set("storage.bytes_per_commit", bytes_per_commit as f64);
    set("storage.as_of_us", med("storage.as_of"));
    set("catalogue.classic_us", med("catalogue.classic"));
    set("catalogue.ranked_us", med("catalogue.ranked"));
    set("catalogue.semantic_us", med("catalogue.semantic"));
    set("federation.scatter_us", med("federation.scatter"));
    set(
        "federation.straggler_us",
        or_zero(median(&counts.stragglers)),
    );
    set("federation.hedged", counts.hedged as f64);
    set("federation.retried", counts.retried as f64);
    set("federation.partial", counts.partial as f64);
    set("merge.strategy_us", med("merge.strategy"));
    set("merge.parse_us", med("merge.parse"));
    set("merge.merge_us", med("merge.merge"));
    set("merge.emit_us", med("merge.emit"));
    set("merge.bytes_in", counts.merge_bytes_in as f64 / requests);
    for layer in LAYERS {
        let total: f64 = named
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum();
        let key = METRICS
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_us_per_op") == Some(layer))
            .map(|(n, _)| *n)
            .expect("every layer has a self-time metric");
        set(key, total / traced_requests);
    }
    // Server overhead: end-to-end p50 minus the untraced requests' p50,
    // overall and per operation type.
    let untraced_all: Vec<f64> = untraced.values().flatten().copied().collect();
    set(
        "server.overhead_us",
        input.e2e_read_p50 - median(&untraced_all),
    );
    for kind in Kind::READS {
        if let (Some(e2e), Some(replayed)) = (input.e2e_p50_by_kind.get(&kind), untraced.get(&kind))
        {
            let key = METRICS
                .iter()
                .find(|(n, _)| n.strip_prefix("server.overhead_us.") == Some(kind.label()))
                .map(|(n, _)| *n)
                .expect("every read type has an overhead metric");
            set(key, e2e - median(replayed));
        }
    }
    // Tracing overhead: per type, traced p50 against untraced p50,
    // weighted by the type's share of requests.
    let (mut extra, mut base) = (0.0, 0.0);
    for (kind, off) in untraced {
        if let Some(on) = traced.get(kind) {
            let n = (off.len() + on.len()) as f64;
            extra += n * (median(on) - median(off));
            base += n * median(off);
        }
    }
    set("trace.overhead_pct", extra / base * 100.0);
    if let Some(dir) = sidecar_dir {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(input.work.join("trace-store"));
    }
    Ok(m)
}
