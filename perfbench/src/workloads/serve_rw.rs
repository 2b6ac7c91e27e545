//! `serve-rw`: a loopback `ndss serve` daemon with ingest enabled. NDSB
//! searches and `POST /ingest` batches of fresh texts arrive in an open
//! loop at fixed rates, each on its own connection, while the daemon's
//! background compactor seals and merges WAL segments into new
//! generations.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ndss::corpus::CorpusSource;
use ndss::hash::{TokenId, Xoshiro256StarStar};
use ndss::index::{
    build_and_write, CacheConfig, DiskIndex, GenerationStore, IndexAccess, IngestIndex,
    IngestOptions,
};
use ndss::json::{Json, ObjectBuilder};
use ndss::obs::{MetricValue, Registry, Unit};
use ndss::query::{NearDupSearcher, PrefixFilter, ServingIndex, ServingOptions};
use ndss::serve::client::HttpClient;
use ndss::serve::frame::{self, FrameOutcome, SearchRequest, SearchResponse};
use ndss::serve::{IngestServeConfig, ServeConfig, Server};

use super::{
    build_replays, common_info, index_config, peak_rss_mib, read_replays, repeat_setup,
    write_bytes, Agg, Ctx, Outcome, TraceSplit, Verdict, K, THETA,
};
use crate::check::{compare_ranked, sampled, Ranked};
use crate::inputs::{Inputs, Scale, QUERY_LEN};
use crate::openloop::{due, sleep_until, Timing};
use crate::report::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Searches per second: about a quarter of what one connection sustains
/// against this store between compactions (about 95/s on a 2-core Xeon
/// VM). Every compaction blocks searches for about a second; at this rate
/// the backlog it leaves drains in a fraction of a second. Nearer the
/// capacity the drains grow with the host's speed and move the median
/// from run to run.
const SEARCH_RATE: f64 = 25.0;
/// Ingest requests per second, each carrying [`INGEST_BATCH`] texts. The
/// search rate is not a multiple of it: with both at 12/s every search
/// raced an ingest (a search that overlaps one is about a fifth slower),
/// and which of them won moved the search median from run to run.
const INGEST_RATE: f64 = 12.0;
const INGEST_BATCH: usize = 4;
/// The daemon's WAL rotation threshold: the ingest traffic fills it about
/// every 5.5 s, so four seal-and-compact cycles complete in a 25 s run and
/// the next rotation falls after its end. Each compaction rewrites the
/// whole generation under the ingest lock, which every search also takes,
/// so searches stall for about a fifth of the run and the p98 search
/// latency is about the length of the longest stalls.
const FLUSH_BYTES: u64 = 420 << 10;
const COMPACT_INTERVAL: Duration = Duration::from_millis(200);
/// A run whose load generator sent its p95 request later than this after
/// it could have is invalid: the client, not the daemon, set the pace.
const GEN_LATE_LIMIT_MS: f64 = 50.0;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests still unsent this long after the run's end are given up as
/// timed out, so an overloaded daemon cannot stretch the run unboundedly.
const GIVE_UP_AFTER: Duration = Duration::from_secs(20);
const WARMUP: usize = 20;
const CHECK_EVERY: u64 = 16;

/// What the search connection saw.
#[derive(Default)]
struct SearchLog {
    timings: Vec<Timing>,
    ok: Vec<bool>,
    traced: Vec<bool>,
    responses: Vec<SearchResponse>,
    /// `(query, answer, visible, invisible)`; see [`compare_ranked`].
    checks: Vec<(usize, Vec<Ranked>, u32, u32)>,
}

/// What the ingest connection saw.
#[derive(Default)]
struct IngestLog {
    timings: Vec<Timing>,
    ok: Vec<bool>,
    /// `(text id, index into the ingest inputs)` of every acknowledged text.
    acked: Vec<(u32, usize)>,
    pending_max: u64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let span = tracer.open("inputs.generate", 0, None);
    let inputs = Inputs::generate(Workload::ServeRw, ctx.seed, Scale::Full);
    tracer.close(span);
    let corpus = &inputs.corpus;
    let base_texts = corpus.num_texts() as u32;

    let (server, dir, setup_s, build_s) = repeat_setup(ctx, "store", |dir, i| {
        let start = Instant::now();
        let span = tracer.open("index.build", i, None);
        let store = GenerationStore::open(dir).map_err(|e| e.to_string())?;
        let generation = store.allocate().map_err(|e| e.to_string())?;
        build_and_write(corpus, index_config(), &generation, true).map_err(|e| e.to_string())?;
        let name = generation
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("generation directory has no name")?;
        store.publish(name, 1).map_err(|e| e.to_string())?;
        tracer.close(span);
        let build = start.elapsed();
        let span = tracer.open("serve.bind", i, None);
        let serving = ServingIndex::open_with_options(
            dir,
            ServingOptions {
                cache: CacheConfig::default(),
                ..ServingOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            filter: PrefixFilter::Adaptive,
            cache: CacheConfig::default(),
            ingest: Some(IngestServeConfig {
                store: dir.to_path_buf(),
                flush_bytes: FLUSH_BYTES,
                compact_interval: Some(COMPACT_INTERVAL),
                ..IngestServeConfig::default()
            }),
            ..ServeConfig::default()
        };
        let server = Server::bind(config, serving).map_err(|e| e.to_string())?;
        tracer.close(span);
        Ok((server, build))
    })?;
    let running = server.spawn();
    let addr = running.handle().addr();

    let queries = &inputs.queries;
    let mut conn = connect(addr)?;
    let warm = Instant::now();
    for q in &queries[..WARMUP] {
        search_once(&mut conn, q)?;
    }
    let warm_ms = warm.elapsed().as_secs_f64() * 1e3 / WARMUP as f64;

    let before = RegistryValues::now();
    let written_before = write_bytes();
    let acked_next = AtomicU64::new(base_texts as u64);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let (search_log, ingest_log) = std::thread::scope(|scope| {
        let searches = scope.spawn(|| {
            search_loop(
                conn,
                tracer,
                queries,
                &acked_next,
                start,
                end,
                inputs.check_seed,
            )
        });
        let ingests = scope.spawn(|| ingest_loop(addr, tracer, &inputs, &acked_next, start, end));
        (
            searches.join().expect("search client panicked"),
            ingests.join().expect("ingest client panicked"),
        )
    });
    let (search_log, ingest_log) = (search_log?, ingest_log?);
    let wall = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    let after = RegistryValues::now();
    let written = write_bytes() - written_before;
    let drain = running.shutdown_and_join().map_err(|e| e.to_string())?;
    let peak_rss = peak_rss_mib();

    // Seal whatever the daemon left in its WAL so the final generation
    // holds every acknowledged text.
    let span = tracer.open("check", 0, None);
    IngestIndex::open(&dir, None, IngestOptions::default())
        .and_then(|mut ingest| ingest.seal_all())
        .map_err(|e| e.to_string())?;
    let final_dir = GenerationStore::open(&dir)
        .and_then(|s| s.current_dir())
        .map_err(|e| e.to_string())?
        .ok_or("the store has no CURRENT generation")?;
    let final_index = DiskIndex::open(&final_dir).map_err(|e| e.to_string())?;
    let (check, matched_texts) =
        check_answers(&final_index, queries, &search_log, &ingest_log, &inputs)?;
    tracer.close(span);

    let mut search_latency = Samples::default();
    let mut split = TraceSplit::default();
    let mut late = Samples::default();
    let mut client_busy = 0.0;
    for log_timings in [&search_log.timings, &ingest_log.timings] {
        let mut previous = None;
        for t in log_timings {
            late.push(t.generator_lateness(previous).as_secs_f64() * 1e3);
            client_busy += (t.done - t.sent).as_secs_f64();
            previous = Some(t.done);
        }
    }
    for ((t, &ok), &traced) in search_log
        .timings
        .iter()
        .zip(&search_log.ok)
        .zip(&search_log.traced)
    {
        let ms = if ok {
            t.latency().as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        search_latency.push(ms);
        split.push(traced, ms);
    }
    let mut ingest_latency = Samples::default();
    for (t, &ok) in ingest_log.timings.iter().zip(&ingest_log.ok) {
        ingest_latency.push(if ok {
            t.latency().as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
    }
    let searches_ok = search_log.ok.iter().filter(|&&ok| ok).count() as u64;
    let attempted = (search_log.ok.len() + ingest_log.ok.len()) as u64;
    let failed = attempted - searches_ok - ingest_log.ok.iter().filter(|&&ok| ok).count() as u64;

    let gen_late_p95 = late.percentile(95.0)?;
    let check = check.and_then(|msg| {
        if gen_late_p95 > GEN_LATE_LIMIT_MS {
            Err(format!(
                "invalid run: the load generator sent its p95 request {gen_late_p95:.1} ms late \
                 (limit {GEN_LATE_LIMIT_MS} ms)"
            ))
        } else {
            Ok(msg)
        }
    });

    let final_bytes = final_index.size_bytes().map_err(|e| e.to_string())?;
    let final_tokens = final_index.config().total_tokens;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    e2e.set("query_qps", searches_ok as f64 / wall);
    e2e.set("query_p50_ms", search_latency.percentile(50.0)?);
    e2e.set("query_p98_ms", search_latency.percentile(98.0)?);
    e2e.set(
        "store_bytes_per_token",
        final_bytes as f64 / final_tokens as f64,
    );
    e2e.set("peak_rss_mib", peak_rss);

    let delta = |name: &str| after.get(name).0 - before.get(name).0;
    let delta_count = |name: &str| after.get(name).1 - before.get(name).1;
    let mut layers = Metrics::default();
    if tracer.enabled() {
        layers.set("index.build_s", build_s);
        // Per-request query counts come from the daemon's registry; each
        // request's lanes (the disk generation and any WAL segments) are
        // searched one after another.
        let lane_queries = delta_count("query.seconds");
        let agg = Agg {
            queries: searches_ok,
            lanes: 1.0,
            total_s: delta("query.seconds"),
            sketch_s: delta("query.stage.sketch.seconds"),
            plan_s: delta("query.stage.plan.seconds"),
            gather_s: delta("query.stage.gather.seconds"),
            count_s: delta("query.stage.count.seconds"),
            probe_s: delta("query.stage.probe.seconds"),
            io_bytes: delta("query.io.bytes"),
            cache_hits: delta("index.cache.posting.hits"),
            cache_misses: delta("index.cache.posting.misses"),
            zone_hits: delta("index.cache.zone.hits"),
            zone_misses: delta("index.cache.zone.misses"),
            lists_deferred: lane_queries * K as f64 - delta("query.lists.loaded"),
            postings: delta("query.postings"),
            candidates: delta("query.texts.candidates"),
            matched: delta("query.texts.matched"),
        };
        layers.set("batch.busy_ratio", client_busy / (2.0 * wall));
        let client_ms = client_busy * 1e3 / attempted.max(1) as f64;
        let server_ms =
            delta("serve.request.seconds") * 1e3 / delta_count("serve.request.seconds").max(1.0);
        layers.set("serve.client_minus_server_ms", client_ms - server_ms);
        layers.set(
            "frame.codec_us",
            codec_replay(tracer, &search_log.responses),
        );
        layers.set("serve.shed", delta("serve.shed"));
        layers.set("serve.gen_late_p95_ms", gen_late_p95);
        layers.set("ingest.p50_ms", ingest_latency.percentile(50.0)?);
        layers.set("ingest.p95_ms", ingest_latency.percentile(95.0)?);
        layers.set(
            "ingest.wal_bytes_per_text",
            delta("ingest.wal_bytes") / delta("ingest.texts").max(1.0),
        );
        layers.set("ingest.compactions", delta("ingest.compactions"));
        layers.set("compact.busy_s", delta("span.ingest.compact"));
        let acked_bytes: usize = ingest_log
            .acked
            .iter()
            .map(|&(_, i)| inputs.ingest[i].len() * 4)
            .sum();
        layers.set(
            "compact.write_bytes_per_ingested_byte",
            written / acked_bytes.max(1) as f64,
        );
        layers.set("ingest.pending_texts_max", ingest_log.pending_max as f64);
        layers.set("trace.overhead_ratio", split.overhead_ratio()?);
        layers.set(
            "trace.unattributed_ratio",
            crate::trace::unattributed_ratio(&tracer.spans(), &["serve.search", "serve.ingest"]),
        );
        layers.set("error_ratio", failed as f64 / attempted.max(1) as f64);
        layers.not_applicable(&["shard.lane_skew"]);
        build_replays(tracer, corpus, queries, &mut layers);
        let sample_queries: Vec<Vec<u32>> = search_log
            .checks
            .iter()
            .map(|(q, ..)| queries[*q].clone())
            .collect();
        let read_ns_per_byte = read_replays(
            tracer,
            &final_dir,
            &sample_queries,
            &matched_texts,
            &mut layers,
        )?;
        agg.apply(&mut layers, read_ns_per_byte);
    }

    let mut info = common_info(corpus, final_bytes);
    info.push(("search_rate_per_s", Json::Float(SEARCH_RATE)));
    info.push(("ingest_rate_per_s", Json::Float(INGEST_RATE)));
    info.push(("ingest_batch_texts", Json::UInt(INGEST_BATCH as u64)));
    info.push(("wal_flush_bytes", Json::UInt(FLUSH_BYTES)));
    info.push(("warmup_search_ms", Json::Float(warm_ms)));
    info.push(("acked_texts", Json::UInt(ingest_log.acked.len() as u64)));
    info.push(("compactions", Json::Float(delta("ingest.compactions"))));
    info.push(("drained_connections", Json::UInt(drain.connections)));
    Ok(Outcome {
        end_to_end: e2e,
        layers,
        attempted,
        failed,
        check,
        info,
    })
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(CLIENT_TIMEOUT)))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn search_request(query: &[TokenId]) -> Vec<u8> {
    frame::encode_search_request(&SearchRequest {
        theta: THETA,
        deadline_ms: 0,
        top: 0,
        query: query.to_vec(),
    })
}

/// One NDSB round trip; the raw response payload.
fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    frame::write_frame(stream, payload).map_err(|e| e.to_string())?;
    match frame::read_frame(stream).map_err(|e| e.to_string())? {
        FrameOutcome::Payload(p) => Ok(p),
        FrameOutcome::Idle => Err("timed out".into()),
        FrameOutcome::Closed => Err("connection closed".into()),
        FrameOutcome::Malformed(m) => Err(m),
    }
}

fn search_once(stream: &mut TcpStream, query: &[TokenId]) -> Result<SearchResponse, String> {
    let payload = round_trip(stream, &search_request(query))?;
    frame::decode_search_response(&payload)
        .map_err(|(status, msg)| format!("status {status}: {msg}"))
}

fn ranked(response: &SearchResponse) -> Vec<Ranked> {
    response
        .matches
        .iter()
        .map(|m| (m.text, m.collisions, m.spans.clone()))
        .collect()
}

/// Gives a request up as timed out, without sending it, once the run is
/// [`GIVE_UP_AFTER`] past its end.
fn gave_up(timings: &mut Vec<Timing>, ok: &mut Vec<bool>, due_at: Instant, end: Instant) -> bool {
    let now = Instant::now();
    if now < end + GIVE_UP_AFTER {
        return false;
    }
    timings.push(Timing {
        due: due_at,
        sent: now,
        done: now,
    });
    ok.push(false);
    true
}

fn search_loop(
    mut stream: TcpStream,
    tracer: &Tracer,
    queries: &[Vec<TokenId>],
    acked_next: &AtomicU64,
    start: Instant,
    end: Instant,
    check_seed: u64,
) -> Result<SearchLog, String> {
    let mut log = SearchLog::default();
    for i in 0u64.. {
        let due_at = due(start, SEARCH_RATE, i);
        if due_at >= end {
            break;
        }
        let q = (WARMUP + i as usize) % queries.len();
        let payload = search_request(&queries[q]);
        sleep_until(due_at);
        if gave_up(&mut log.timings, &mut log.ok, due_at, end) {
            log.traced.push(false);
            continue;
        }
        let visible = acked_next.load(Ordering::SeqCst) as u32;
        let sent = Instant::now();
        let reply = round_trip(&mut stream, &payload);
        let received = Instant::now();
        let decoded = reply.map(|p| frame::decode_search_response(&p));
        let done = Instant::now();
        let traced = tracer.traces(i);
        if traced {
            let id = tracer.record("serve.search", i, None, sent, done);
            tracer.record("serve.wait", i, id, sent, received);
            tracer.record("frame.decode", i, id, received, done);
        }
        log.timings.push(Timing {
            due: due_at,
            sent,
            done,
        });
        log.traced.push(traced);
        let ok = match decoded {
            Ok(Ok(response)) if response.complete => {
                if sampled(check_seed, i, CHECK_EVERY) && log.checks.len() < 24 {
                    let invisible = acked_next.load(Ordering::SeqCst) as u32 + INGEST_BATCH as u32;
                    log.checks.push((q, ranked(&response), visible, invisible));
                }
                log.responses.push(response);
                true
            }
            Ok(Ok(_)) => {
                eprintln!("serve-rw: search {i} returned a partial answer");
                false
            }
            Ok(Err((status, msg))) => {
                eprintln!("serve-rw: search {i} failed with status {status}: {msg}");
                false
            }
            Err(e) => {
                eprintln!("serve-rw: search {i} failed: {e}");
                stream = connect(stream.peer_addr().map_err(|e| e.to_string())?)?;
                false
            }
        };
        log.ok.push(ok);
    }
    Ok(log)
}

fn ingest_loop(
    addr: std::net::SocketAddr,
    tracer: &Tracer,
    inputs: &Inputs,
    acked_next: &AtomicU64,
    start: Instant,
    end: Instant,
) -> Result<IngestLog, String> {
    let mut client = HttpClient::connect(addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
    let mut log = IngestLog::default();
    for j in 0u64.. {
        let due_at = due(start, INGEST_RATE, j);
        if due_at >= end {
            break;
        }
        let first = j as usize * INGEST_BATCH;
        let batch = first..first + INGEST_BATCH;
        if batch.end > inputs.ingest.len() {
            return Err("the run outlasted the generated ingest texts".into());
        }
        let texts = inputs.ingest[batch.clone()]
            .iter()
            .map(|t| Json::Array(t.iter().map(|&tok| Json::UInt(tok as u64)).collect()))
            .collect();
        let body = ObjectBuilder::new()
            .field("texts", Json::Array(texts))
            .build()
            .to_string_compact();
        sleep_until(due_at);
        if gave_up(&mut log.timings, &mut log.ok, due_at, end) {
            continue;
        }
        let sent = Instant::now();
        let reply = client.request("POST", "/ingest", body.as_bytes());
        let done = Instant::now();
        if tracer.traces(j) {
            let id = tracer.record("serve.ingest", j, None, sent, done);
            tracer.record("serve.wait", j, id, sent, done);
        }
        log.timings.push(Timing {
            due: due_at,
            sent,
            done,
        });
        let parsed = match reply {
            Ok(r) if r.status == 200 => Json::parse(&r.text()).map_err(|e| e.to_string()),
            Ok(r) => Err(format!("status {}: {}", r.status, r.text())),
            Err(e) => {
                client = HttpClient::connect(addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
                Err(e.to_string())
            }
        };
        let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
        match parsed {
            Ok(doc) => {
                let (Some(first_id), Some(accepted), Some(next), Some(pending)) = (
                    field(&doc, "first_text"),
                    field(&doc, "accepted"),
                    field(&doc, "next_text"),
                    field(&doc, "pending"),
                ) else {
                    return Err(format!("malformed ingest answer {doc:?}"));
                };
                for (k, input) in batch.take(accepted as usize).enumerate() {
                    log.acked.push((first_id as u32 + k as u32, input));
                }
                acked_next.store(next, Ordering::SeqCst);
                log.pending_max = log.pending_max.max(pending);
                log.ok.push(true);
            }
            Err(e) => {
                eprintln!("serve-rw: ingest {j} failed: {e}");
                log.ok.push(false);
            }
        }
    }
    Ok(log)
}

/// Checks the sampled search answers against an unfiltered (exact, by
/// Theorem 2) search of the final store, and that every acknowledged text
/// is found by a query cut from its own tokens. Returns the verdict and,
/// per sampled query, the texts it matched.
fn check_answers(
    index: &DiskIndex,
    queries: &[Vec<TokenId>],
    searches: &SearchLog,
    ingests: &IngestLog,
    inputs: &Inputs,
) -> Result<(Verdict, Vec<Vec<u32>>), String> {
    let reference = NearDupSearcher::with_prefix_filter(index, PrefixFilter::Disabled)
        .map_err(|e| e.to_string())?;
    let mut matched = Vec::new();
    if searches.checks.is_empty() {
        return Ok((Err("no answer was sampled for checking".into()), matched));
    }
    for (q, got, visible, invisible) in &searches.checks {
        let outcome = reference
            .search(&queries[*q], THETA)
            .map_err(|e| e.to_string())?;
        let want: Vec<Ranked> = reference
            .rank(&outcome, usize::MAX)
            .iter()
            .map(|m| {
                let spans = m.spans.iter().map(|s| (s.start, s.end)).collect();
                (m.text, m.collisions, spans)
            })
            .collect();
        matched.push(want.iter().map(|m| m.0).collect());
        if let Err(e) = compare_ranked(got, &want, *visible, *invisible) {
            return Ok((Err(format!("query {q}: {e}")), matched));
        }
    }
    // Any exact filter will do for the self-lookups; the frequent-list
    // filter answers them fastest.
    let lookup = NearDupSearcher::with_prefix_filter(index, PrefixFilter::FrequentFraction(0.05))
        .map_err(|e| e.to_string())?;
    let mut rng = Xoshiro256StarStar::new(inputs.check_seed);
    for &(id, input) in &ingests.acked {
        let text = &inputs.ingest[input];
        let start = rng.next_bounded((text.len() - QUERY_LEN + 1) as u64) as usize;
        let outcome = lookup
            .search(&text[start..start + QUERY_LEN], THETA)
            .map_err(|e| e.to_string())?;
        if !outcome.matches.iter().any(|m| m.text == id) {
            return Ok((
                Err(format!(
                    "acknowledged text {id} is not found by its own tokens"
                )),
                matched,
            ));
        }
    }
    Ok((
        Ok(format!(
            "{} sampled answers equal the unfiltered search; {} acknowledged texts found",
            searches.checks.len(),
            ingests.acked.len()
        )),
        matched,
    ))
}

/// Mean time to encode and decode one captured search response.
fn codec_replay(tracer: &Tracer, responses: &[SearchResponse]) -> f64 {
    const ROUNDS: usize = 5;
    let span = tracer.open("frame.codec", 0, None);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for r in responses {
            let bytes = frame::encode_search_response(std::hint::black_box(r));
            std::hint::black_box(frame::decode_search_response(&bytes).ok());
        }
    }
    let elapsed = start.elapsed();
    tracer.close(span);
    elapsed.as_secs_f64() * 1e6 / (ROUNDS * responses.len()).max(1) as f64
}

/// Unlabelled registry values: counters and gauges as `(value, 0)`,
/// histograms as `(sum, count)` with seconds in seconds.
struct RegistryValues(HashMap<String, (f64, f64)>);

impl RegistryValues {
    fn now() -> Self {
        let mut map = HashMap::new();
        for m in Registry::global().snapshot() {
            if !m.labels.is_empty() {
                continue;
            }
            let v = match m.value {
                MetricValue::Counter(c) => (c as f64, 0.0),
                MetricValue::Gauge(g) => (g as f64, 0.0),
                MetricValue::Histogram(h) => {
                    let scale = if h.unit == Unit::Seconds { 1e-9 } else { 1.0 };
                    (h.sum as f64 * scale, h.count as f64)
                }
            };
            map.insert(m.name, v);
        }
        RegistryValues(map)
    }

    fn get(&self, name: &str) -> (f64, f64) {
        self.0.get(name).copied().unwrap_or((0.0, 0.0))
    }
}
