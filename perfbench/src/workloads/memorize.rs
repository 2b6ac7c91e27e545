//! `memorize`: the §5 traffic of `ndss memorize`. Windows cut from n-gram
//! LM generations are answered by `BatchSearcher::search_all` with one
//! thread per core, in a closed loop, over an index whose decoded postings
//! fit the posting cache.

use std::time::{Duration, Instant};

use ndss::corpus::CorpusSource;
use ndss::index::{build_and_write, CacheConfig, DiskIndex, ReadOptions};
use ndss::json::Json;
use ndss::query::{BatchSearcher, PrefixFilter};

use super::{
    build_replays, common_info, cores, index_config, matched_texts, peak_rss_mib, read_replays,
    repeat_setup, Agg, Ctx, Outcome, TraceSplit, SERVE_ONLY, T, THETA,
};
use crate::check::{sampled, Definition2Oracle};
use crate::inputs::{Inputs, Scale};
use crate::report::Metrics;
use crate::stats::Samples;
use crate::workloads::Workload;

/// Queries per `search_all` call.
const BATCH: usize = 64;
/// Queries answered before timing starts, so the caches fill.
const WARMUP: usize = 256;
/// About one query in this many is checked against the oracle.
const CHECK_EVERY: u64 = 128;
/// Answers with matches checked in every run.
const CHECK_FOUND: usize = 8;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let span = tracer.open("inputs.generate", 0, None);
    let inputs = Inputs::generate(Workload::Memorize, ctx.seed, Scale::Full);
    tracer.close(span);
    let corpus = &inputs.corpus;
    let threads = cores();

    let (index, dir, setup_s, build_s) = repeat_setup(ctx, "index", |dir, i| {
        let start = Instant::now();
        let span = tracer.open("index.build", i, None);
        build_and_write(corpus, index_config(), dir, true).map_err(|e| e.to_string())?;
        tracer.close(span);
        let build = start.elapsed();
        let span = tracer.open("index.open", i, None);
        let index = DiskIndex::open_with_io(dir, CacheConfig::default(), ReadOptions::default())
            .map_err(|e| e.to_string())?;
        tracer.close(span);
        Ok((index, build))
    })?;
    let searcher = BatchSearcher::with_prefix_filter(&index, PrefixFilter::Adaptive)
        .map_err(|e| e.to_string())?
        .threads(threads);

    let queries = &inputs.queries;
    searcher
        .search_all(&queries[..WARMUP], THETA)
        .map_err(|e| e.to_string())?;

    let mut latency = Samples::default();
    let mut split = TraceSplit::default();
    let mut agg = Agg::new(1);
    let (mut attempted, mut failed, mut memorized) = (0u64, 0u64, 0u64);
    let mut busy = Duration::ZERO;
    let mut checks = Vec::new();
    let mut checked_found = 0;
    let mut next = WARMUP;
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut batch_no = 0u64;
    while start.elapsed() < run_for {
        let chunk: Vec<Vec<u32>> = (0..BATCH)
            .map(|j| queries[(next + j) % queries.len()].clone())
            .collect();
        let traced = tracer.traces(batch_no);
        let t0 = Instant::now();
        let result = searcher.search_all(&chunk, THETA);
        let t1 = Instant::now();
        attempted += chunk.len() as u64;
        match result {
            Ok(outcomes) => {
                let mut batch_agg = Agg::new(1);
                for (j, o) in outcomes.iter().enumerate() {
                    let ms = o.stats.total.as_secs_f64() * 1e3;
                    latency.push(ms);
                    split.push(traced, ms);
                    busy += o.stats.total;
                    agg.add(&o.stats);
                    batch_agg.add(&o.stats);
                    memorized += u64::from(o.num_texts() > 0);
                    // The seeded sample, plus the first answers that found
                    // something, so that matches are always checked too.
                    let q = (next + j) % queries.len();
                    let found = o.num_texts() > 0 && checked_found < CHECK_FOUND;
                    if found
                        || sampled(inputs.check_seed, q as u64, CHECK_EVERY) && checks.len() < 40
                    {
                        checked_found += usize::from(o.num_texts() > 0);
                        checks.push((q, o.enumerate_all()));
                    }
                }
                if traced {
                    // Stage spans carry the batch's summed stage times spread
                    // over its threads; what they leave uncovered is idle
                    // time and the part of each query no stage explains.
                    let id = tracer.record("batch", batch_no, None, t0, t1);
                    let per_thread = threads as f64;
                    let stats = ndss::query::QueryStats {
                        stage_sketch: Duration::from_secs_f64(batch_agg.sketch_s),
                        stage_plan: Duration::from_secs_f64(batch_agg.plan_s),
                        stage_gather: Duration::from_secs_f64(batch_agg.gather_s),
                        stage_count: Duration::from_secs_f64(batch_agg.count_s),
                        stage_probe: Duration::from_secs_f64(batch_agg.probe_s),
                        ..Default::default()
                    };
                    tracer.stages(id, batch_no, t0, &Agg::stage_list(&stats, per_thread));
                }
            }
            Err(e) => {
                eprintln!("memorize: batch failed: {e}");
                failed += chunk.len() as u64;
                for _ in 0..chunk.len() {
                    latency.push(f64::INFINITY);
                }
            }
        }
        next += BATCH;
        batch_no += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    let span = tracer.open("check", 0, None);
    let oracle = Definition2Oracle::new(corpus, index_config().hasher(), T);
    let mut check = Ok(format!(
        "{} sampled answers equal bruteforce::definition2_scan",
        checks.len()
    ));
    if checks.is_empty() {
        check = Err("no answer was sampled for checking".to_string());
    }
    for (q, got) in &mut checks {
        got.sort_unstable();
        let want = oracle.scan(&queries[*q], THETA)?;
        if *got != want {
            check = Err(format!(
                "query {q}: {} sequences, oracle {}",
                got.len(),
                want.len()
            ));
            break;
        }
    }
    tracer.close(span);

    let index_bytes = index.size_bytes().map_err(|e| e.to_string())?;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    e2e.set("query_qps", (attempted - failed) as f64 / wall);
    e2e.set("query_p50_ms", latency.percentile(50.0)?);
    e2e.set("query_p98_ms", latency.percentile(98.0)?);
    e2e.set(
        "store_bytes_per_token",
        index_bytes as f64 / corpus.total_tokens() as f64,
    );
    e2e.set("peak_rss_mib", peak_rss_mib());

    let mut layers = Metrics::default();
    if tracer.enabled() {
        layers.set("index.build_s", build_s);
        layers.set(
            "batch.busy_ratio",
            busy.as_secs_f64() / (threads as f64 * wall),
        );
        layers.set("trace.overhead_ratio", split.overhead_ratio()?);
        layers.set(
            "trace.unattributed_ratio",
            crate::trace::unattributed_ratio(&tracer.spans(), &["batch"]),
        );
        layers.set("error_ratio", failed as f64 / attempted.max(1) as f64);
        build_replays(tracer, corpus, queries, &mut layers);
        let sample_queries: Vec<Vec<u32>> =
            checks.iter().map(|(q, _)| queries[*q].clone()).collect();
        let texts: Vec<Vec<u32>> = checks
            .iter()
            .map(|(_, seqs)| matched_texts(seqs, u32::MAX))
            .collect();
        let read_ns_per_byte = read_replays(tracer, &dir, &sample_queries, &texts, &mut layers)?;
        agg.apply(&mut layers, read_ns_per_byte);
        layers.not_applicable(SERVE_ONLY);
        layers.not_applicable(&["shard.lane_skew"]);
    }

    let mut info = common_info(corpus, index_bytes);
    info.push(("threads", Json::UInt(threads as u64)));
    info.push(("queries_answered", Json::UInt(attempted - failed)));
    info.push((
        "memorized_ratio",
        Json::Float(memorized as f64 / (attempted - failed).max(1) as f64),
    ));
    Ok(Outcome {
        end_to_end: e2e,
        layers,
        attempted,
        failed,
        check,
        info,
    })
}
