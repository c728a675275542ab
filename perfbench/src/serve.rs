//! `serve` workload: a `tilelink-serve` daemon on an ephemeral localhost
//! port, driven closed-loop over [`connections`] connections from this
//! process. Each pass boots a fresh daemon with an in-memory cache, then
//!
//! 1. *cold fill*: requests every key of a 30-key catalog once;
//! 2. *warm stream*: sends a seeded, Zipf-weighted stream of `TUNE`
//!    requests over the same catalog, interleaved with `PING`, `STATS` and
//!    about 1 % malformed lines that must get `ERR`.
//!
//! The warm phase exercises the protocol, reactor, dispatch queue and
//! sharded cache with no compile or simulate work; the cold phase shows the
//! daemon's overhead on top of search.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tilelink_serve::protocol::OkFields;
use tilelink_serve::{
    parse_command, parse_reply, serve_ephemeral, Client, Command, Reply, ServeOptions,
    ServerHandle, Source, StatsFields, TuneRequest, TuneService, WorkloadSpec,
};
use tilelink_sim::CostModelSpec;
use tilelink_tune::SearchExecutor;
use tilelink_workloads::autotune::{self, TuneOptions};
use tilelink_workloads::shapes;

use crate::report::{secs, Bench, Counters};
use crate::rng::{Rng, Zipf};
use crate::stats::geomean;
use crate::tune_sweep::{default_total, ROUTED_OBJECTIVE, ROUTING};

/// Client connections (and client threads) driving the daemon; never more
/// than the host's CPUs.
pub fn connections() -> usize {
    crate::host::nproc().min(2)
}

/// Lines per connection in one pass's warm stream.
pub const WARM_LINES_PER_CONNECTION: usize = 30_000;
/// Zipf exponent of the warm stream's key popularity.
pub const WARM_ZIPF_S: f64 = 1.1;

/// Lines that must each get `ERR` and leave the connection usable.
pub const MALFORMED: [&str; 8] = [
    "TUNE workload=MLP-9",
    "TUNE workload=MoE-1 routing=zipf:-1",
    "TUNE cluster=h800x0 workload=MLP-1",
    "TUNE workload=MLP-1 objective=p95",
    "TUNE workload",
    "HELLO",
    "TUNE workload=MoE-2 samples=4",
    "TUNE workload=MLP-3 colour=blue",
];

/// The 30 request lines of the catalog: the 12 Figure 8/9 shapes on one
/// 8×H800 node, the same shapes on two nodes, and the 6 MoE shapes under
/// `zipf:1.2` routing with the `p95` objective.
pub fn catalog() -> Vec<String> {
    let names: Vec<&str> = shapes::mlp_shapes()
        .iter()
        .map(|s| s.name)
        .chain(shapes::moe_shapes().iter().map(|s| s.name))
        .collect();
    let single = names
        .iter()
        .map(|n| format!("TUNE workload={n} cluster=h800x8"));
    let two_node = names
        .iter()
        .map(|n| format!("TUNE workload={n} cluster=h800x8x2"));
    let routed = shapes::moe_shapes().into_iter().map(|s| {
        format!(
            "TUNE workload={} cluster=h800x8 routing={ROUTING} objective={ROUTED_OBJECTIVE}",
            s.name
        )
    });
    single.chain(two_node).chain(routed).collect()
}

/// One line of a warm stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLine {
    /// `TUNE` for the catalog key with this index.
    Tune(usize),
    /// `PING`.
    Ping,
    /// `STATS`.
    Stats,
    /// The malformed line with this index into [`MALFORMED`].
    Malformed(usize),
}

impl StreamLine {
    /// The request text.
    pub fn text<'a>(&self, catalog: &'a [String]) -> &'a str {
        match *self {
            StreamLine::Tune(key) => &catalog[key],
            StreamLine::Ping => "PING",
            StreamLine::Stats => "STATS",
            StreamLine::Malformed(i) => MALFORMED[i],
        }
    }
}

/// The warm stream of connection `conn`: `len` lines, a pure function of
/// `(seed, conn)`, so every pass of a run replays the same requests. About
/// 1 % of lines are malformed, 2 % `PING` and 1 % `STATS`; the rest are
/// `TUNE` requests whose keys follow a Zipf law over the catalog order (key
/// 0 hottest). The seed draws the sequence, not the popularity, so every
/// seed sends the same mix. The stream always ends with `PING`, so every
/// malformed line is followed by a request on the same connection.
pub fn warm_stream(seed: u64, conn: usize, len: usize, keys: usize) -> Vec<StreamLine> {
    let zipf = Zipf::new(keys, WARM_ZIPF_S);
    let mut rng = Rng::new(seed, conn as u64 | 0x5e7e_0000);
    let mut lines: Vec<StreamLine> = (0..len.saturating_sub(1))
        .map(|_| match rng.below(100) {
            0 => StreamLine::Malformed(rng.below(MALFORMED.len())),
            1 | 2 => StreamLine::Ping,
            3 => StreamLine::Stats,
            _ => StreamLine::Tune(zipf.sample(&mut rng)),
        })
        .collect();
    lines.push(StreamLine::Ping);
    lines
}

/// The daemon configuration: `ServeOptions::default()` with an in-memory
/// cache, and search threads and pool workers capped at the host's CPUs.
pub fn options() -> ServeOptions {
    let nproc = crate::host::nproc();
    let defaults = ServeOptions::default();
    ServeOptions {
        cache_path: None,
        threads: Some(nproc),
        pool_workers: defaults.pool_workers.min(nproc),
        ..defaults
    }
}

/// A booted daemon with its client connections.
pub struct Daemon {
    /// The server.
    pub handle: ServerHandle,
    /// One client per connection.
    pub clients: Vec<Client>,
}

/// Set-up: boots a daemon and connects every client, each answering `PING`.
///
/// # Errors
///
/// Returns the bind, connect or request error.
pub fn boot() -> std::io::Result<Daemon> {
    let handle = serve_ephemeral(TuneService::new(options()))?;
    let clients = (0..connections())
        .map(|_| {
            let mut client = Client::connect(handle.addr())?;
            let pong = client.request("PING")?;
            if pong != "PONG" {
                return Err(std::io::Error::other(format!("PING answered {pong:?}")));
            }
            Ok(client)
        })
        .collect::<std::io::Result<Vec<Client>>>()?;
    Ok(Daemon { handle, clients })
}

/// Parsed `STATS` of a daemon at `addr`, over a fresh connection.
fn stats(addr: SocketAddr) -> Result<StatsFields, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let line = client.request("STATS").map_err(|e| e.to_string())?;
    parse_reply(&line)?.stats()
}

/// What one client thread saw.
#[derive(Default)]
struct ConnLog {
    /// `(catalog key, latency s, reply)` of the cold requests it sent.
    cold: Vec<(usize, f64, String)>,
    /// Latencies of its warm `TUNE` requests, seconds.
    warm_tune: Vec<f64>,
    /// Lines sent in the warm stream.
    warm_sent: usize,
    /// Warm `TUNE` lines sent.
    warm_tunes: usize,
    /// Failed requests or replies.
    failures: Vec<String>,
}

/// The reply a warm `TUNE` must get, given the cold reply for its key.
fn as_warm(cold_reply: &str) -> String {
    cold_reply.replacen(" source=cold ", " source=warm ", 1)
}

fn check_reply(line: StreamLine, reply: &str, expected: &[String], log: &mut ConnLog) {
    let ok = match (line, parse_reply(reply)) {
        (StreamLine::Tune(key), Ok(Reply::Ok(_))) => reply == expected[key],
        (StreamLine::Ping, Ok(Reply::Pong)) => true,
        (StreamLine::Stats, Ok(reply @ Reply::Stats(_))) => reply.stats().is_ok(),
        (StreamLine::Malformed(_), Ok(Reply::Err(_))) => true,
        _ => false,
    };
    if !ok {
        log.failures
            .push(format!("{line:?} got unexpected reply {reply:?}"));
    }
}

/// Sends every catalog key once, in catalog order, spread over the clients
/// in a closed loop (each client sends the next key when its last reply
/// arrives).
fn cold_fill(clients: &mut [Client], catalog: &[String]) -> Vec<ConnLog> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    loop {
                        let key = next.fetch_add(1, Ordering::Relaxed);
                        if key >= catalog.len() {
                            break;
                        }
                        let start = Instant::now();
                        match client.request(&catalog[key]) {
                            Ok(reply) => log.cold.push((key, secs(start), reply)),
                            Err(e) => {
                                log.failures.push(format!("cold {}: {e}", catalog[key]));
                                break;
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("cold-fill client thread"))
            .collect()
    })
}

/// Plays one warm stream per client, checking every reply.
fn warm_streams(
    clients: &mut [Client],
    catalog: &[String],
    streams: &[Vec<StreamLine>],
    expected: &[String],
) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    for &line in stream {
                        let start = Instant::now();
                        let reply = match client.request(line.text(catalog)) {
                            Ok(reply) => reply,
                            Err(e) => {
                                log.failures.push(format!("warm {line:?}: {e}"));
                                break;
                            }
                        };
                        let latency = secs(start);
                        log.warm_sent += 1;
                        if matches!(line, StreamLine::Tune(_)) {
                            log.warm_tunes += 1;
                            log.warm_tune.push(latency);
                        }
                        check_reply(line, &reply, expected, &mut log);
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm-stream client thread"))
            .collect()
    })
}

/// One pass on a fresh daemon. Returns the cold reply of every catalog key
/// (`None` where the request failed).
pub fn pass(bench: &mut Bench, catalog: &[String]) -> Vec<Option<String>> {
    let mut daemon = match boot() {
        Ok(daemon) => daemon,
        Err(e) => {
            bench.check(false, || format!("daemon boot failed: {e}"));
            return vec![None; catalog.len()];
        }
    };
    let addr = daemon.handle.addr();
    let before = stats(addr);
    tilelink::reset_compile_cache();

    let start = Instant::now();
    let cold_logs = cold_fill(&mut daemon.clients, catalog);
    let cold_s = secs(start);
    let mut replies: Vec<Option<String>> = vec![None; catalog.len()];
    for (key, latency, reply) in cold_logs.iter().flat_map(|l| &l.cold) {
        bench.sample("serve.cold_p50_ms", latency * 1e3);
        replies[*key] = Some(reply.clone());
    }
    let expected: Vec<String> = replies
        .iter()
        .map(|r| r.as_deref().map(as_warm).unwrap_or_default())
        .collect();

    let streams: Vec<Vec<StreamLine>> = (0..daemon.clients.len())
        .map(|conn| warm_stream(bench.seed, conn, WARM_LINES_PER_CONNECTION, catalog.len()))
        .collect();
    let warm_start = Instant::now();
    let warm_logs = warm_streams(&mut daemon.clients, catalog, &streams, &expected);
    let warm_s = secs(warm_start);
    bench.step(false, "cold_fill", cold_s);
    bench.step(true, "warm_stream", warm_s);
    let after = stats(addr);
    daemon.handle.shutdown();

    let sent: usize = warm_logs.iter().map(|l| l.warm_sent).sum();
    let tunes: usize = warm_logs.iter().map(|l| l.warm_tunes).sum();

    // Cold replies are checked against the in-process searches in `run`.
    bench.operations(
        catalog.len() + sent,
        warm_logs
            .iter()
            .chain(&cold_logs)
            .flat_map(|l| l.failures.iter().cloned()),
    );
    let expected_lines: usize = streams.iter().map(Vec::len).sum();
    let latencies: Vec<f64> = warm_logs
        .iter()
        .flat_map(|l| l.warm_tune.iter().copied())
        .collect();
    bench.end_pass(expected_lines, &latencies);
    bench.check(sent == expected_lines, || {
        format!("warm stream stopped after {sent} of {expected_lines} lines")
    });

    match (before, after) {
        (Ok(b), Ok(a)) => {
            let cold = a.cold - b.cold;
            let warm = a.warm - b.warm;
            bench.check(cold == catalog.len() as u64, || {
                format!(
                    "STATS counted {cold} cold requests for {} keys",
                    catalog.len()
                )
            });
            bench.check(warm == tunes as u64, || {
                format!("STATS counted {warm} warm requests for {tunes} warm TUNE lines")
            });
            bench.pass_counters(
                Counters::from([
                    ("serve.warm", warm as f64),
                    ("serve.cold", cold as f64),
                    ("serve.deduped", (a.deduped - b.deduped) as f64),
                    (
                        "serve.pool_rejected",
                        (a.pool_rejected - b.pool_rejected) as f64,
                    ),
                    ("serve.warm_stream_lines", sent as f64),
                ]),
                Counters::new(),
            );
        }
        (b, a) => {
            bench.check(false, || format!("STATS failed: before {b:?}, after {a:?}"));
        }
    }
    replies
}

/// The in-process answer for one catalog line: the same search the daemon
/// runs on a cold miss (`tuned_full_*` with the daemon's strategy, space,
/// objective and routing), rendered as the daemon's `OK` line with
/// `source=cold`, plus the default config's objective value.
pub fn reference(line: &str) -> Result<(String, f64), String> {
    let Command::Tune(req) = parse_command(line)? else {
        return Err(format!("{line:?} is not a TUNE request"));
    };
    let TuneRequest {
        workload,
        cluster,
        objective,
    } = *req;
    let opts = options();
    let cost = CostModelSpec::Analytic
        .build(&cluster)
        .map_err(|e| e.to_string())?;
    let mut topts = TuneOptions {
        strategy: opts.strategy,
        space: opts.space.clone(),
        threads: opts.threads,
        objective,
        ..TuneOptions::default()
    }
    .with_cost(cost)
    .with_executor(SearchExecutor::global());
    let tuned = match &workload {
        WorkloadSpec::Mlp(shape) => autotune::tuned_full_mlp(shape, &cluster, &topts),
        WorkloadSpec::Moe { shape, routing } => {
            if let Some(spec) = routing {
                topts = topts.with_routing(*spec);
            }
            autotune::tuned_full_moe(shape, &cluster, &topts)
        }
    }
    .map_err(|e| e.to_string())?;
    let default = default_total(&tuned.search).ok_or("default config not ranked")?;
    let fields = OkFields {
        workload: workload.name().to_string(),
        source: Source::Cold.as_str().to_string(),
        config: tuned.config.cache_key(),
        total_ms: tuned.layer.total_s * 1e3,
        comm_ms: tuned.layer.comm_only_s * 1e3,
        comp_ms: tuned.layer.comp_only_s * 1e3,
        evals: tuned.search.evaluations,
        cache_hits: tuned.search.cache_hits,
    };
    Ok((fields.render(), default / tuned.layer.total_s))
}

/// The `serve` workload.
pub fn run(bench: &mut Bench) {
    let catalog = catalog();
    let opts = options();
    bench.input("catalog_keys", catalog.len());
    bench.input("connections", connections());
    bench.input("client_threads", connections());
    bench.input("pool_workers", opts.pool_workers);
    bench.input("search_threads", opts.threads.unwrap_or(0));
    bench.input("executor_threads", SearchExecutor::global().threads());
    bench.input("warm_lines_per_connection", WARM_LINES_PER_CONNECTION);
    bench.start_clock();
    let mut served: Vec<Vec<Option<String>>> = Vec::new();
    let mut passes = 0;
    while passes == 0 || bench.time_left() {
        // Set-up samples: boot (and stop) idle daemons before each pass.
        for _ in 0..10 {
            let start = Instant::now();
            match boot() {
                Ok(daemon) => {
                    bench.sample("setup_s", secs(start));
                    daemon.handle.shutdown();
                }
                Err(e) => {
                    bench.check(false, || format!("daemon boot failed: {e}"));
                }
            }
        }
        served.push(pass(bench, &catalog));
        passes += 1;
    }
    crate::report::sample_peak_rss(bench);

    // Every cold answer must match the in-process search for the same key.
    let mut speedups = Vec::new();
    for (key, line) in catalog.iter().enumerate() {
        match reference(line) {
            Ok((expected, speedup)) => {
                speedups.push(speedup);
                for replies in &served {
                    let got = replies[key].as_deref();
                    bench.check(got == Some(expected.as_str()), || {
                        format!("{line}: daemon answered {got:?}, in-process search {expected:?}")
                    });
                }
            }
            Err(e) => {
                bench.check(false, || format!("{line}: in-process search failed: {e}"));
            }
        }
    }
    if speedups.len() == catalog.len() {
        bench.sample("speedup_geomean", geomean(&speedups));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lines_parse_to_distinct_requests() {
        let catalog = catalog();
        assert_eq!(catalog.len(), 30);
        let requests: Vec<TuneRequest> = catalog
            .iter()
            .map(|line| match parse_command(line) {
                Ok(Command::Tune(req)) => *req,
                other => panic!("{line}: {other:?}"),
            })
            .collect();
        for (i, a) in requests.iter().enumerate() {
            for b in &requests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected_by_the_parser() {
        for line in MALFORMED {
            assert!(parse_command(line).is_err(), "{line}");
        }
    }

    #[test]
    fn warm_stream_is_a_function_of_seed_and_connection() {
        let a = warm_stream(11, 0, 5000, 30);
        assert_eq!(a, warm_stream(11, 0, 5000, 30));
        assert_ne!(a, warm_stream(12, 0, 5000, 30));
        assert_ne!(a, warm_stream(11, 1, 5000, 30));
        assert_eq!(a.len(), 5000);
        assert_eq!(a.last(), Some(&StreamLine::Ping));
    }

    #[test]
    fn warm_stream_mix() {
        let lines = warm_stream(5, 0, 20_000, 30);
        let count = |f: fn(&StreamLine) -> bool| lines.iter().filter(|l| f(l)).count();
        let malformed = count(|l| matches!(l, StreamLine::Malformed(_)));
        let pings = count(|l| matches!(l, StreamLine::Ping));
        let stats = count(|l| matches!(l, StreamLine::Stats));
        assert!((150..250).contains(&malformed), "{malformed}");
        assert!((300..500).contains(&pings), "{pings}");
        assert!((150..250).contains(&stats), "{stats}");
        let mut hits = [0usize; 30];
        for line in &lines {
            if let StreamLine::Tune(key) = line {
                hits[*key] += 1;
            }
        }
        // Zipf over the catalog order: key 0 dominates, every key appears.
        assert!(hits[0] > 3 * (lines.len() / 30), "{hits:?}");
        assert!(hits[0] > hits[1] && hits[1] > hits[29], "{hits:?}");
        assert!(hits.iter().all(|&h| h > 0), "{hits:?}");
    }

    #[test]
    fn warm_reply_rewrites_only_the_source() {
        let cold = "OK workload=MLP-1 source=cold config=x total_ms=1.000000 comm_ms=0.1 \
                    comp_ms=0.9 evals=3 cache_hits=0";
        assert_eq!(as_warm(cold), cold.replace("source=cold", "source=warm"));
    }
}
