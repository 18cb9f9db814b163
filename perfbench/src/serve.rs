//! `serve_mixed`: an in-process campaign service (`Server::bind` on a
//! Unix socket, `--jobs 2`, memory-only store) driven by two closed-loop
//! client threads through a seeded stream of distinct small-scale
//! campaign requests, each a workload pair × a configuration × a warm-up.

use crate::json::Json;
use crate::ledger::{Ledger, Span};
use crate::stats::{median, tail};
use crate::{
    detailed_cycles, layer_metrics, more, peak_rss_mib, replay, setup_samples, splitmix64, state,
    Args, EndToEnd, Outcome, Tally, JOBS,
};
use boom_uarch::BoomConfig;
use boomflow::{
    campaign_fingerprint, decode_server, encode_client, encode_server, read_frame,
    realize_campaign, request_events, supervise_matrix_with, write_frame, CampaignJournal,
    CampaignOptions, CampaignReport, CampaignRequest, ClientMsg, Request, RetryPolicy, ServeAddr,
    ServeOptions, Server, ServerMsg,
};
use rv_workloads::{all, Scale, Workload};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Requests per stream.
const REQUESTS: usize = 120;
/// Closed-loop client threads (each sends its next request only after
/// the previous one completed).
const CLIENTS: usize = 2;
const CONFIGS: [&str; 3] = ["medium", "large", "mega"];
const WARMUPS: [u64; 3] = [2_000, 5_000, 10_000];

/// The request stream of `seed`: `n` distinct requests (at most the
/// size of the space) drawn without replacement from every unordered
/// workload pair × configuration × warm-up, in a seeded random order.
pub fn stream(seed: u64, n: usize, names: &[String]) -> Vec<CampaignRequest> {
    let mut space = Vec::new();
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            for config in CONFIGS {
                for warmup in WARMUPS {
                    space.push((i, j, config, warmup));
                }
            }
        }
    }
    let n = n.min(space.len());
    let mut state = seed;
    for k in 0..n {
        let pick = k + (splitmix64(&mut state) % (space.len() - k) as u64) as usize;
        space.swap(k, pick);
    }
    space.truncate(n);
    space
        .into_iter()
        .map(|(i, j, config, warmup)| CampaignRequest {
            workloads: format!("{},{}", names[i], names[j]),
            config: config.to_string(),
            scale: Scale::Small,
            warmup,
            retries: RetryPolicy::default().max_attempts,
            batch_lanes: 1,
            idle_skip: false,
        })
        .collect()
}

/// The workloads requests are drawn from, at the stream's scale.
fn workloads() -> Vec<Workload> {
    all(Scale::Small)
}

/// Workload names as requests spell them.
fn names(ws: &[Workload]) -> Vec<String> {
    ws.iter().map(|w| w.name.to_lowercase()).collect()
}

/// A bound (not yet running) service with its own state directory.
struct Service {
    /// Taken when the service starts running.
    server: Option<Server>,
    addr: ServeAddr,
    dir: PathBuf,
}

impl Service {
    fn bind(tag: &str) -> Result<Service, String> {
        let base = PathBuf::from(state::DIR);
        let name = format!("serve-{}-{tag}", std::process::id());
        let dir = base.join(&name);
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            jobs: JOBS,
            max_active: 8,
            cache_dir: None,
            state_dir: dir.clone(),
            kill_after_points: None,
        };
        let sock = ServeAddr::Unix(base.join(format!("{name}.sock")));
        let server = Server::bind(&sock, opts).map_err(|e| format!("bind {sock}: {e}"))?;
        let addr = server.addr().clone();
        Ok(Service { server: Some(server), addr, dir })
    }
}

impl Drop for Service {
    /// Removes the service's socket and state directory.
    fn drop(&mut self) {
        if let ServeAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(seed: u64, tag: &str) -> Result<(Vec<CampaignRequest>, Service), String> {
    let reqs = stream(seed, REQUESTS, &names(&workloads()));
    Ok((reqs, Service::bind(tag)?))
}

/// One served request as its client saw it.
struct Served {
    /// Submit → `Done`, seconds.
    latency: f64,
    /// Submit → `Admitted`, seconds.
    admitted: f64,
    ok: bool,
    digest: u64,
    /// The terminal message, kept when tracing.
    done: Option<ServerMsg>,
}

/// Runs the stream through a fresh service; returns its wall time and
/// every request's outcome (`None`: the request never completed).
fn serve(
    service: Service,
    reqs: &[CampaignRequest],
    keep: bool,
) -> Result<(f64, Vec<Option<Served>>), String> {
    let mut service = service;
    let server = service.server.take().ok_or("service already ran")?;
    let addr = service.addr.clone();
    let handle = std::thread::spawn(move || server.run());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Served>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = reqs.get(i) else { break };
                let msg = ClientMsg::Submit(Request::Campaign(req.clone()));
                let t0 = Instant::now();
                let mut admitted = 0.0;
                let r = request_events(&addr, &msg, |m| {
                    if matches!(m, ServerMsg::Admitted { .. }) {
                        admitted = t0.elapsed().as_secs_f64();
                    }
                });
                let latency = t0.elapsed().as_secs_f64();
                let served = match &r {
                    Ok(Some(done @ ServerMsg::Done { ok, report, .. })) => Some(Served {
                        latency,
                        admitted,
                        ok: *ok,
                        digest: rv_isa::codec::fnv1a(report),
                        done: keep.then(|| done.clone()),
                    }),
                    other => {
                        eprintln!("perfbench: request {i} ended without a result: {other:?}");
                        None
                    }
                };
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = served;
                }
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let bye = request_events(&addr, &ClientMsg::Shutdown, |_| {});
    let joined = handle.join();
    drop(service);
    if !matches!(bye, Ok(Some(ServerMsg::Bye { .. }))) || !matches!(joined, Ok(Ok(()))) {
        return Err("the service did not shut down cleanly".to_string());
    }
    Ok((wall, slots.into_iter().map(|m| m.into_inner().ok().flatten()).collect()))
}

/// A request run solo (`supervise_matrix_with`, fresh store): its report
/// digest and detailed cycles.
struct Solo {
    digest: u64,
    cycles: u64,
    report: CampaignReport,
}

fn solo(req: &CampaignRequest) -> Result<Solo, String> {
    let (cfgs, ws, flow) = realize_campaign(req)?;
    let opts = CampaignOptions {
        jobs: JOBS,
        batch_lanes: req.batch_lanes.max(1),
        ..CampaignOptions::default()
    };
    let report = supervise_matrix_with(&cfgs, &ws, &flow, &opts);
    let digest = rv_isa::codec::fnv1a(report.render_deterministic().as_bytes());
    Ok(Solo { digest, cycles: detailed_cycles(&report.cells), report })
}

/// Checks every served request against its solo run (outside any timed
/// window).
fn check(
    tally: &mut Tally,
    reqs: &[CampaignRequest],
    solos: &[Solo],
    reps: &[Vec<Option<Served>>],
) {
    for served in reps {
        for (i, s) in served.iter().enumerate() {
            let ok = matches!(s, Some(s) if s.ok && s.digest == solos[i].digest);
            tally.ops(1, ok, || {
                format!("served report of request {i} ({:?}) differs from its solo run", reqs[i])
            });
        }
    }
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let mut setups = setup_samples(|| setup(args.seed, "setup"))?;
    let mut walls = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut rates = Vec::new();
    let mut ranks = Vec::new();
    let mut reps = Vec::new();
    let mut reqs = Vec::new();
    let start = Instant::now();
    while more(start, args.seconds, walls.len()) {
        let t = Instant::now();
        let (stream, service) = setup(args.seed, &walls.len().to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        let (wall, served) = serve(service, &stream, false)?;
        let lat: Vec<f64> = served.iter().flatten().map(|s| s.latency).collect();
        walls.push(wall);
        p50s.push(median(&lat));
        let (p90, rank) = tail(&lat);
        p90s.push(p90);
        ranks.push(rank);
        rates.push(lat.len() as f64 / wall);
        reps.push(served);
        reqs = stream;
    }
    let rss = peak_rss_mib();

    let solos = reqs.iter().map(solo).collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();
    check(&mut tally, &reqs, &solos, &reps);
    let e2e = EndToEnd {
        setups,
        peak_rss_mib: rss,
        cycles: vec![solos.iter().map(|s| s.cycles).sum(); reps.len()],
        p50: median(&p50s),
        p90: median(&p90s),
        p90_rank: median(&ranks),
        rate: median(&rates),
        requests: reps.iter().map(|r| r.iter().flatten().count() as u64).sum(),
        walls,
    };
    Ok(Outcome {
        tally,
        metrics: e2e.metrics(),
        extra: Vec::new(),
        record: e2e
            .record()
            .with("clients", Json::Int(CLIENTS as u64))
            .with("requests_per_stream", Json::Int(reqs.len() as u64)),
        seeded: true,
    })
}

/// Key of one requested cell: (workload, configuration, warm-up).
type CellKey = (String, &'static str, u64);

fn cells_of(req: &CampaignRequest) -> Vec<CellKey> {
    let config = CONFIGS.into_iter().find(|c| *c == req.config).unwrap_or("medium");
    req.workloads.split(',').map(|w| (w.to_string(), config, req.warmup)).collect()
}

fn config_of(key: &str) -> BoomConfig {
    match key {
        "large" => BoomConfig::large(),
        "mega" => BoomConfig::mega(),
        _ => BoomConfig::medium(),
    }
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut l = Ledger::default();
    let mut tally = Tally::default();
    let workloads = l.time("workloads.build", workloads);
    let reqs = stream(args.seed, REQUESTS, &names(&workloads));
    let service = Service::bind("trace")?;
    let (_, served) = serve(service, &reqs, true)?;

    // Admission and execution per request, as its client saw them.
    for s in served.iter().flatten() {
        l.add("server.admit", Span { calls: 1, ns: (s.admitted * 1e9) as u64, ..Span::default() });
        l.add(
            "server.exec",
            Span { calls: 1, ns: ((s.latency - s.admitted) * 1e9) as u64, ..Span::default() },
        );
    }
    let mut seen: HashSet<CellKey> = HashSet::new();
    let (mut warm, mut total) = (0u64, 0u64);
    for key in reqs.iter().flat_map(cells_of) {
        total += 1;
        warm += u64::from(!seen.insert(key));
    }

    // Protocol framing of every submit and every result.
    for (req, s) in reqs.iter().zip(&served) {
        let msg = ClientMsg::Submit(Request::Campaign(req.clone()));
        l.time("protocol.encode", || {
            let mut buf = Vec::new();
            write_frame(&mut buf, &encode_client(&msg)).map(|()| buf)
        })
        .map_err(|e| format!("encode: {e}"))?;
        let Some(done) = s.as_ref().and_then(|s| s.done.as_ref()) else { continue };
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_server(done)).map_err(|e| format!("frame: {e}"))?;
        l.count("protocol.done_frame_bytes", frame.len() as u64);
        let decoded = l.time("protocol.decode", || {
            read_frame(&mut frame.as_slice()).and_then(|p| decode_server(&p))
        });
        tally.ops(1, decoded.as_ref().ok() == Some(done), || {
            "a result frame does not decode to itself".to_string()
        });
    }

    // Solo runs: the check, report rendering and journaling.
    let solos = reqs.iter().map(solo).collect::<Result<Vec<_>, _>>()?;
    check(&mut tally, &reqs, &solos, std::slice::from_ref(&served));
    let journal_path =
        PathBuf::from(state::DIR).join(format!("serve-{}-journal.bfj", std::process::id()));
    for (req, s) in reqs.iter().zip(&solos) {
        let bytes = l.time("core.report", || s.report.render_deterministic());
        l.count("core.report_bytes", bytes.len() as u64);
        let (cfgs, ws, flow) = realize_campaign(req)?;
        let journal =
            CampaignJournal::create(&journal_path, campaign_fingerprint(&cfgs, &ws, &flow))
                .map_err(|e| format!("journal: {e}"))?;
        let header = std::fs::metadata(&journal_path).map_err(|e| e.to_string())?.len();
        for (c_idx, cell) in s.report.cells.iter().enumerate() {
            let Ok(r) = &cell.outcome else { continue };
            for (p_idx, p) in r.points.iter().enumerate() {
                let outcome = Ok((p.clone(), 1));
                l.time("core.journal_append", || journal.append(c_idx, p_idx, &outcome));
            }
        }
        let size = std::fs::metadata(&journal_path).map_err(|e| e.to_string())?.len();
        l.count("core.journal_bytes", size - header);
    }
    let _ = std::fs::remove_file(&journal_path);

    // Replay every distinct requested cell and hold it to its solo bits.
    let mut results: HashMap<CellKey, &boomflow::WorkloadResult> = HashMap::new();
    for (req, s) in reqs.iter().zip(&solos) {
        for (key, cell) in cells_of(req).into_iter().zip(&s.report.cells) {
            if let Ok(r) = &cell.outcome {
                results.entry(key).or_insert(r);
            }
        }
    }
    let mut keys: Vec<&CellKey> = seen.iter().collect();
    keys.sort();
    for w in &workloads {
        let name = w.name.to_lowercase();
        for warmup in WARMUPS {
            let mine: Vec<&&CellKey> =
                keys.iter().filter(|k| k.0 == name && k.2 == warmup).collect();
            if mine.is_empty() {
                continue;
            }
            let flow = boomflow::FlowConfig {
                warmup_insts: warmup,
                retry: RetryPolicy::default(),
                ..boomflow::FlowConfig::default()
            };
            let front = match replay::front(&mut l, w, &flow) {
                Ok(front) => front,
                Err(e) => {
                    tally.ops(mine.len() as u64, false, || e);
                    continue;
                }
            };
            for key in mine {
                let replayed = replay::cell(&mut l, &config_of(key.1), &front, &flow);
                let ok = matches!((results.get(*key), &replayed), (Some(r), Ok(x)) if x.matches(r));
                tally.ops(1, ok, || format!("replay of {key:?} disagrees with its solo report"));
            }
        }
    }

    Ok(Outcome {
        tally,
        metrics: layer_metrics(
            &l,
            &[("server.warm_cell_share", warm as f64 / total.max(1) as f64)],
        ),
        extra: Vec::new(),
        record: Json::obj()
            .with("clients", Json::Int(CLIENTS as u64))
            .with("requests_per_stream", Json::Int(reqs.len() as u64))
            .with("replayed_cells", Json::Int(keys.len() as u64)),
        seeded: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_names() -> Vec<String> {
        [
            "basicmath",
            "bitcount",
            "dijkstra",
            "fft",
            "matmult",
            "patricia",
            "qsort",
            "sha",
            "stringsearch",
            "tarfind",
            "ifft",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let names = test_names();
        assert_eq!(stream(7, REQUESTS, &names), stream(7, REQUESTS, &names));
        assert_ne!(stream(7, REQUESTS, &names), stream(8, REQUESTS, &names));
    }

    #[test]
    fn requests_are_distinct_and_well_formed() {
        let names = test_names();
        for seed in [0, 1, 2, 0xdead_beef] {
            let reqs = stream(seed, REQUESTS, &names);
            assert_eq!(reqs.len(), REQUESTS);
            let ids: HashSet<u64> =
                reqs.iter().map(|r| boomflow::request_id(&Request::Campaign(r.clone()))).collect();
            assert_eq!(ids.len(), REQUESTS, "seed {seed} repeats a request");
            for r in &reqs {
                let pair: Vec<&str> = r.workloads.split(',').collect();
                assert_eq!(pair.len(), 2);
                assert_ne!(pair[0], pair[1]);
                assert!(CONFIGS.contains(&r.config.as_str()) && WARMUPS.contains(&r.warmup));
                assert_eq!(r.scale, Scale::Small);
            }
        }
    }

    #[test]
    fn stream_is_capped_by_the_space() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        // 3 pairs × 3 configurations × 3 warm-ups.
        assert_eq!(stream(3, 1000, &names).len(), 27);
    }
}
