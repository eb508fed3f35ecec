//! `ee-perfbench`: the repository's performance benchmark.
//!
//! ```text
//! ee-perfbench --workload browse|ingest|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts real `ee-serve` processes (the binary named by
//! `EE_PERFBENCH_SERVE`), drives one workload open loop for `S` seconds,
//! checks every answer against an independent reference, and prints one
//! JSON line: `{"correct","attempted","failed","metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also replays the schedule in-process with spans on and prints the
//! per-layer metrics instead. A fuller report (tail percentiles, per-type
//! latency, generator lateness, cache hit share, host steal) goes to
//! `report-<workload>-<seed>-t<trace>.json` in the work directory
//! (`EE_PERFBENCH_WORK`). See `perfbench/README.md`.

mod client;
mod gen;
mod ops;
mod procs;
mod replay;
mod trace;

use client::Conn;
use gen::{median, percentile, run_open_loop, tail_percentile, trimmed_mean, Due, Outcome, Record};
use ops::{Kind, Op, Oracle, Points, Workload, Write, Written};
use procs::{Server, Spec};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The end-to-end metrics (`--trace 0`), with units, in report order.
/// `recovery_s` is reported beside them, not gated: launch times moved by
/// up to 60% between stretches of host load, against a 25% bound.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mib", "MiB"),
];

/// Launches per run whose median is `setup_s`.
const SETUP_LAUNCHES: usize = 5;
/// Kill-and-restart cycles per run, half before the window and half
/// after; their trimmed mean is the reported `recovery_s`.
const RECOVERIES: usize = 6;
/// Equal slices of the window; latency and CPU metrics are the median
/// of the per-slice values.
const SLICES: usize = 5;
/// Writes in the post-window probe of `browse` and `routed`.
const PROBE_WRITES: usize = 200;
/// Probe write rate (per second).
const PROBE_RATE: f64 = 100.0;
/// Concurrent connections (and generator threads).
const LANES: usize = 2;
/// Time after the last due request before queued ones count undrained.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name)
        .ok_or_else(|| format!("unknown workload {name:?} (browse, ingest, routed)"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer".to_string())?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes an integer".to_string())?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed requests per operation type.
#[derive(Default)]
struct Tally {
    by_kind: BTreeMap<&'static str, (u64, u64)>,
    first_failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &'static str, outcome: &Outcome) {
        let e = self.by_kind.entry(label).or_default();
        e.0 += 1;
        if *outcome != Outcome::Ok {
            e.1 += 1;
            if self.first_failures.len() < 10 {
                self.first_failures.push(format!("{label}: {outcome:?}"));
            }
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.by_kind
            .values()
            .fold((0, 0), |(a, f), (x, y)| (a + x, f + y))
    }
}

/// The server processes of one workload.
fn specs(workload: Workload, work: &Path, launch: usize) -> Result<Vec<Spec>, String> {
    let spec =
        |role: String, args: Vec<String>, data_dir: Option<PathBuf>, addr: SocketAddr| Spec {
            role,
            args,
            data_dir,
            addr,
        };
    let writable = "--writable".to_string();
    let count = if workload == Workload::Routed { 3 } else { 1 };
    let addrs = procs::free_addrs(count).map_err(|e| format!("no free port: {e}"))?;
    Ok(match workload {
        Workload::Browse => vec![spec("server".into(), vec![writable], None, addrs[0])],
        Workload::Ingest => {
            let dir = work.join(format!("ingest-data-{launch}"));
            let _ = std::fs::remove_dir_all(&dir);
            vec![spec("server".into(), vec![writable], Some(dir), addrs[0])]
        }
        Workload::Routed => {
            let mut all: Vec<Spec> = (0..2)
                .map(|i| {
                    let args = [
                        "--shard-index",
                        &i.to_string(),
                        "--shard-count",
                        "2",
                        &writable,
                    ];
                    spec(
                        format!("shard-{i}"),
                        args.map(String::from).to_vec(),
                        None,
                        addrs[i],
                    )
                })
                .collect();
            let backends = format!("{},{}", addrs[0], addrs[1]);
            all.push(spec(
                "router".into(),
                vec!["--router".into(), backends],
                None,
                addrs[2],
            ));
            all
        }
    })
}

/// SIGKILL the fleet's first process (the server; shard 0 when routed)
/// and restart it on the same configuration. Then check one read through
/// the front and, when `written` is given, that every acknowledged write
/// is visible. Returns the kill-to-`LISTENING` time in seconds.
fn recover(
    serve: &Path,
    work: &Path,
    fleet: &mut [Server],
    oracle: &Oracle,
    check: &Op,
    written: Option<&Written>,
    tally: &mut Tally,
) -> Result<f64, String> {
    let took = procs::restart(serve, &mut fleet[0], work)?;
    let front = fleet.last().expect("a fleet has a front").spec.addr;
    send_judged(&mut Conn::new(front), oracle, check, "after_restart", tally);
    if let Some(want) = written {
        check_written(front, want, tally);
    }
    Ok(took.as_secs_f64())
}

/// Send one read outside the schedule, judge it, and count it under `label`.
fn send_judged(conn: &mut Conn, oracle: &Oracle, op: &Op, label: &'static str, tally: &mut Tally) {
    let raw = op.request(&oracle.as_of_id());
    let outcome = match conn.send(&raw) {
        Ok(resp) => oracle.judge(usize::MAX, op, &raw, &resp),
        Err(e) => Outcome::Transport(e.to_string()),
    };
    tally.add(label, &outcome);
}

/// Read the written state back through `addr`, compare, and count the
/// check as one `written` request (failed on any error or difference).
fn check_written(addr: SocketAddr, want: &Written, tally: &mut Tally) {
    let read_back = || -> Result<[Vec<u8>; 3], Outcome> {
        let mut conn = Conn::new(addr);
        let mut bodies: [Vec<u8>; 3] = Default::default();
        for (i, q) in Written::queries().iter().enumerate() {
            let resp = conn
                .send(&client::post("/query?limit=1000000", q))
                .map_err(|e| Outcome::Transport(e.to_string()))?;
            if resp.status != 200 {
                return Err(Outcome::Status(
                    resp.status,
                    String::from_utf8_lossy(&resp.body).into_owned(),
                ));
            }
            bodies[i] = resp.body;
        }
        Ok(bodies)
    };
    let outcome = match read_back() {
        Ok(bodies) => want
            .check(&bodies)
            .map_or_else(Outcome::Wrong, |()| Outcome::Ok),
        Err(failed) => failed,
    };
    tally.add("written", &outcome);
}

/// The timing samples of one open-loop phase, split by type.
struct Phase {
    records: Vec<Record>,
    kinds: Vec<Kind>,
}

impl Phase {
    fn latencies_us(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| pick(self.kinds[r.index]) && r.outcome != Outcome::Undrained)
            .map(|r| r.latency.as_secs_f64() * 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Run `ops` open loop against `addr` (writes with a `shard` go to that
/// shard's own address) and judge every answer.
fn drive(
    oracle: &Oracle,
    front: SocketAddr,
    shards: &[SocketAddr],
    due: &[Duration],
    ops: &[Op],
) -> Phase {
    let mut serial = 0;
    let schedule: Vec<Due> = due
        .iter()
        .zip(ops)
        .map(|(&at, op)| Due {
            at,
            serial: matches!(op, Op::Write(_)).then(|| {
                serial += 1;
                serial - 1
            }),
        })
        .collect();
    let records = run_open_loop(
        &schedule,
        LANES,
        DRAIN_GRACE,
        |_| {
            (
                Conn::new(front),
                shards.iter().map(|&a| Conn::new(a)).collect::<Vec<_>>(),
            )
        },
        |(conn, shard_conns), index| {
            let op = &ops[index];
            let raw = op.request(&oracle.as_of_id());
            let target = match op {
                Op::Write(Write { shard: Some(s), .. }) => &mut shard_conns[*s],
                _ => conn,
            };
            match target.send(&raw) {
                Ok(resp) => oracle.judge(index, op, &raw, &resp),
                Err(e) => Outcome::Transport(e.to_string()),
            }
        },
    );
    Phase {
        records,
        kinds: ops.iter().map(Op::kind).collect(),
    }
}

/// Send `writes` open loop at the probe rate; returns their latencies (µs).
fn drive_probe(
    oracle: &Oracle,
    front: SocketAddr,
    shards: &[SocketAddr],
    writes: &[Write],
    tally: &mut Tally,
) -> Vec<f64> {
    let due = gen::uniform(writes.len(), PROBE_RATE, 0.0);
    let ops: Vec<Op> = writes.iter().cloned().map(Op::Write).collect();
    let phase = drive(oracle, front, shards, &due, &ops);
    for r in &phase.records {
        tally.add("probe_write", &r.outcome);
    }
    phase.latencies_us(|_| true)
}

fn sum_cpu(pids: &[u32]) -> u64 {
    pids.iter().filter_map(|&pid| procs::cpu_ticks(pid)).sum()
}

/// Everything one run measured.
struct Run {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: Vec<(String, String)>,
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args, serve: &Path, work: &Path) -> Result<Run, String> {
    let wl = args.workload;
    let seconds = args.seconds as f64;
    let config = ee_serve::state::DataConfig::default();
    let mut tally = Tally::default();
    let mut report: Vec<(String, String)> = Vec::new();
    let mut note = |k: &str, v: String| report.push((k.to_string(), v));

    // References, built before any server so set-up is timed on a quiet host.
    let reference = Arc::new(ee_serve::AppState::build(config.clone()));
    let points = Points::generate(config.points, config.seed);
    let all_keys = ops::browse_keys(args.seed, &reference);
    let keys: Vec<Op> = match wl {
        Workload::Browse => all_keys,
        Workload::Routed => all_keys
            .into_iter()
            .filter(|k| k.kind() == Kind::Tile)
            .collect(),
        Workload::Ingest => Vec::new(),
    };
    let oracle = Oracle::new(points, &reference, &keys);
    let sched = ops::schedule(wl, args.seed, ops::SEGMENT_E2E, seconds, &keys);

    // Set-up: the median of several launches; the last one serves the run.
    let mut setups = Vec::new();
    let mut fleet: Vec<Server> = Vec::new();
    for launch in 0..SETUP_LAUNCHES {
        drop(std::mem::take(&mut fleet));
        let (servers, took) = procs::launch(serve, &specs(wl, work, launch)?, work)?;
        setups.push(took.as_secs_f64());
        fleet = servers;
    }
    for launch in 0..SETUP_LAUNCHES - 1 {
        let _ = std::fs::remove_dir_all(work.join(format!("ingest-data-{launch}")));
    }
    let front = fleet.last().expect("a fleet has a front").spec.addr;
    let shard_addrs: Vec<SocketAddr> = if wl == Workload::Routed {
        fleet[..2].iter().map(|s| s.spec.addr).collect()
    } else {
        Vec::new()
    };

    // Recovery: half of the restarts now and half after the window, so
    // the samples span the whole run rather than one stretch of host load.
    let check_op = ops::schedule(wl, args.seed, ops::SEGMENT_CHECK, 1.0, &keys)
        .ops
        .into_iter()
        .find(|o| o.kind() == Kind::Count)
        .expect("every workload reads counts");
    let nothing_written = (wl == Workload::Ingest).then(Written::default);
    let mut recoveries = Vec::new();
    for _ in 0..RECOVERIES / 2 {
        recoveries.push(recover(
            serve,
            work,
            &mut fleet,
            &oracle,
            &check_op,
            nothing_written.as_ref(),
            &mut tally,
        )?);
    }
    // The write probe of the workloads without window writes, likewise
    // half before the window and half after. Written features lie
    // outside every read window, so the window's answers do not change.
    let probe = ops::probe_writes(args.seed, PROBE_WRITES, shard_addrs.len().max(1));
    let pre_probe = if wl == Workload::Ingest {
        Vec::new()
    } else {
        drive_probe(
            &oracle,
            front,
            &shard_addrs,
            &probe[..PROBE_WRITES / 2],
            &mut tally,
        )
    };

    // Warm-up: every browse key once; a few reads elsewhere.
    let warm: Vec<Op> = match wl {
        Workload::Browse => keys.clone(),
        _ => ops::schedule(wl, args.seed, ops::SEGMENT_WARM, 1.0, &keys)
            .ops
            .into_iter()
            .filter(|o| o.kind() == Kind::Count)
            .take(40)
            .collect(),
    };
    let mut warm_conn = Conn::new(front);
    for op in &warm {
        send_judged(&mut warm_conn, &oracle, op, "warmup", &mut tally);
    }
    drop(warm_conn);
    let hits0 = oracle.cache_hits.load(std::sync::atomic::Ordering::Relaxed);
    let lookups0 = oracle
        .cache_lookups
        .load(std::sync::atomic::Ordering::Relaxed);

    // The measured window, cut into SLICES equal slices. The metrics are
    // medians over slices, so a burst of host steal moves one slice and
    // not the result. A sampler thread reads server CPU at each boundary.
    let pids: Vec<u32> = fleet.iter().map(Server::pid).collect();
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let host0 = procs::host_cpu();
    let (window, cpu_marks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let t0 = std::time::Instant::now();
            (0..=SLICES)
                .map(|k| {
                    gen::sleep_until(t0 + slice * k as u32);
                    sum_cpu(&pids)
                })
                .collect::<Vec<u64>>()
        });
        let window = drive(&oracle, front, &shard_addrs, &sched.due, &sched.ops);
        (window, sampler.join().expect("cpu sampler panicked"))
    });
    let host1 = procs::host_cpu();
    for r in &window.records {
        tally.add(window.kinds[r.index].label(), &r.outcome);
    }
    let slice_of = |r: &Record| {
        ((sched.due[r.index].as_secs_f64() / slice.as_secs_f64()) as usize).min(SLICES - 1)
    };
    let mut done_per_slice = [0usize; SLICES];
    for r in window
        .records
        .iter()
        .filter(|r| r.outcome != Outcome::Undrained)
    {
        done_per_slice[slice_of(r)] += 1;
    }
    let cpu_per_slice: Vec<f64> = (0..SLICES)
        .map(|k| {
            (cpu_marks[k + 1] - cpu_marks[k]) as f64 / procs::TICKS_PER_SEC * 1e6
                / done_per_slice[k].max(1) as f64
        })
        .collect();
    let cpu_us_per_op = median(&cpu_per_slice);
    let slice_p50 = |pick: &dyn Fn(Kind) -> bool| -> f64 {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for r in window
            .records
            .iter()
            .filter(|r| pick(window.kinds[r.index]) && r.outcome != Outcome::Undrained)
        {
            per[slice_of(r)].push(r.latency.as_secs_f64() * 1e6);
        }
        median(
            &per.iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .collect::<Vec<_>>(),
        )
    };
    note("slices", SLICES.to_string());
    note("cpu_us_per_op_per_slice", format!("{cpu_per_slice:?}"));
    let steal_pct = match (host0, host1) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let hits = oracle.cache_hits.load(std::sync::atomic::Ordering::Relaxed) - hits0;
    let lookups = oracle
        .cache_lookups
        .load(std::sync::atomic::Ordering::Relaxed)
        - lookups0;
    let reads = window.latencies_us(|k| k != Kind::Write);
    let read_p50 = slice_p50(&|k| k != Kind::Write);
    note("read_p50_us_unsliced", fmt_num(median(&reads)));
    let mut write_lat = window.latencies_us(|k| k == Kind::Write);
    let mut write_p50 = slice_p50(&|k| k == Kind::Write);

    note("nproc", ee_util::par::available_threads().to_string());
    note("host_steal_pct", fmt_num(steal_pct));
    note("offered_read_rate_per_s", fmt_num(wl.read_rate()));
    note("offered_write_rate_per_s", fmt_num(wl.write_rate()));
    note(
        "cache_hit_share",
        fmt_num(hits as f64 / lookups.max(1) as f64),
    );
    note("cache_hit_share_n", lookups.to_string());
    note("read_n", reads.len().to_string());
    if let Some(p) = tail_percentile(reads.len()) {
        note("read_tail_percentile", fmt_num(p));
        note("read_tail_us", fmt_num(percentile(&reads, p)));
    }
    for (p, name) in [(99.0, "read_p99_us"), (99.9, "read_p999_us")] {
        if tail_percentile(reads.len()).is_some_and(|t| t >= p) {
            note(name, fmt_num(percentile(&reads, p)));
        }
    }
    for kind in Kind::READS.iter().chain([&Kind::Write]) {
        let v = window.latencies_us(|k| k == *kind);
        if !v.is_empty() {
            note(&format!("{}_p50_us", kind.label()), fmt_num(median(&v)));
            note(&format!("{}_n", kind.label()), v.len().to_string());
        }
    }
    let mut late: Vec<f64> = window
        .records
        .iter()
        .map(|r| r.lateness.as_secs_f64() * 1e6)
        .collect();
    late.sort_by(f64::total_cmp);
    note("lateness_p50_us", fmt_num(median(&late)));
    note("lateness_p99_us", fmt_num(percentile(&late, 99.0)));
    note(
        "lateness_max_us",
        fmt_num(late.last().copied().unwrap_or(0.0)),
    );
    note("lateness_n", late.len().to_string());
    let e2e_p50_by_kind: BTreeMap<Kind, f64> = Kind::READS
        .iter()
        .filter_map(|&k| {
            let v = window.latencies_us(|x| x == k);
            (!v.is_empty()).then(|| (k, median(&v)))
        })
        .collect();

    // Writes: the window's commits (ingest) or a short probe afterwards.
    let window_writes: Vec<Write> = sched
        .ops
        .iter()
        .filter_map(|o| match o {
            Op::Write(w) => Some(w.clone()),
            _ => None,
        })
        .collect();
    let written = if wl == Workload::Ingest {
        Written::fold(&window_writes)
    } else {
        let post_probe = drive_probe(
            &oracle,
            front,
            &shard_addrs,
            &probe[PROBE_WRITES / 2..],
            &mut tally,
        );
        note("write_p50_us_before_window", fmt_num(median(&pre_probe)));
        note("write_p50_us_after_window", fmt_num(median(&post_probe)));
        write_lat = [pre_probe, post_probe].concat();
        write_p50 = median(&write_lat);
        let written = Written::fold(&probe);
        check_written(front, &written, &mut tally);
        written
    };
    note("write_n", write_lat.len().to_string());
    let rss_mib = fleet
        .iter()
        .filter_map(|s| procs::vm_hwm_kib(s.pid()))
        .sum::<u64>() as f64
        / 1024.0;

    if wl == Workload::Routed {
        let empty = ops::KNOWN_DEFECT_PROBE;
        let status = Conn::new(front)
            .send(&Op::Count(empty).request(""))
            .map_or_else(|e| e.to_string(), |r| r.status.to_string());
        note("known_defect_router_empty_count_status", status);
        note(
            "known_defect_window_features",
            oracle.points.count(&empty).to_string(),
        );
    }

    let written = (wl == Workload::Ingest).then_some(written);
    for _ in RECOVERIES / 2..RECOVERIES {
        recoveries.push(recover(
            serve,
            work,
            &mut fleet,
            &oracle,
            &check_op,
            written.as_ref(),
            &mut tally,
        )?);
    }
    if wl == Workload::Ingest {
        let answers = std::mem::take(&mut *oracle.deferred.lock().expect("deferred lock"));
        let checked = answers.len();
        let fresh = Arc::new(ee_serve::AppState::build(config.clone()));
        for (index, why) in ops::check_deferred_ranked(&fresh, &window_writes, answers) {
            // Re-label the window record that carried this answer.
            tally.add("ranked_replay", &Outcome::Wrong(format!("#{index}: {why}")));
        }
        note("ranked_checked_by_replay", checked.to_string());
        note(
            "flush_policy",
            "fsync on every commit (EE_WAL_NO_SYNC unset)".into(),
        );
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        let input = replay::Input {
            workload: wl,
            seed: args.seed,
            seconds,
            keys: &keys,
            e2e_read_p50: read_p50,
            e2e_p50_by_kind,
            shards: shard_addrs.clone(),
            work,
        };
        let layer = replay::run(&input)?;
        for (name, unit) in replay::METRICS {
            metrics.push((name, layer[name], unit));
        }
    } else {
        let values = [median(&setups), read_p50, write_p50, cpu_us_per_op, rss_mib];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    note("setup_samples_s", format!("{setups:?}"));
    note("recovery_s", fmt_num(trimmed_mean(&recoveries)));
    note("recovery_samples_s", format!("{recoveries:?}"));
    drop(fleet);
    let _ = std::fs::remove_dir_all(work.join(format!("ingest-data-{}", SETUP_LAUNCHES - 1)));
    Ok(Run {
        tally,
        metrics,
        report,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ee-perfbench: {e}");
            eprintln!("usage: ee-perfbench --workload browse|ingest|routed --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let serve = match std::env::var_os("EE_PERFBENCH_SERVE") {
        Some(p) => PathBuf::from(p),
        None => {
            eprintln!("ee-perfbench: EE_PERFBENCH_SERVE must name the ee-serve binary");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(
        std::env::var_os("EE_PERFBENCH_WORK").unwrap_or_else(|| ".bench_build/perfbench".into()),
    );
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ee-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = match run(&args, &serve, &work) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ee-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let (attempted, failed) = result.tally.totals();
    for f in &result.tally.first_failures {
        eprintln!("ee-perfbench: failed {f}");
    }
    let per_type: Vec<String> = result
        .tally
        .by_kind
        .iter()
        .map(|(k, (a, f))| format!("\"{k}\":{{\"attempted\":{a},\"failed\":{f}}}"))
        .collect();
    let extra: Vec<String> = result
        .report
        .iter()
        .map(|(k, v)| {
            let quoted = v.parse::<f64>().is_err() && v != "null";
            if quoted {
                format!("\"{k}\":\"{v}\"")
            } else {
                format!("\"{k}\":{v}")
            }
        })
        .collect();
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", fmt_num(*v)))
        .collect();
    let report_path = work.join(format!(
        "report-{}-{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"per_type\":{{{}}},\"report\":{{{}}},\"metrics\":{{{}}}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        per_type.join(","),
        extra.join(","),
        metrics.join(",")
    );
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("ee-perfbench: cannot write {}: {e}", report_path.display());
    }
    for (k, v) in &result.report {
        eprintln!("ee-perfbench: {k} = {v}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_util::json::{self, Json};

    /// The metrics the binary prints are exactly those `BENCHMARK.json`
    /// declares, with the same units and in the same order.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let spec =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared = |section: &str| -> Vec<(String, String)> {
            spec.get(section)
                .and_then(Json::as_arr)
                .expect("section present")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(replay::METRICS));
    }
}
