//! `scan-cold`: independent random queries, half near-duplicate copies and
//! half novel, from one closed-loop caller through `ShardedSearcher` over a
//! two-shard store whose decoded postings are several times the posting
//! cache, so most lists miss it.

use std::time::{Duration, Instant};

use ndss::corpus::CorpusSource;
use ndss::index::{build_sharded, CacheConfig, ReadOptions, ShardedBuildOptions};
use ndss::json::Json;
use ndss::query::{NearDupSearcher, PrefixFilter, ShardedIndex};

use super::{
    build_replays, common_info, cores, index_config, matched_texts, peak_rss_mib, read_replays,
    repeat_setup, trace_query, Agg, Ctx, Outcome, TraceSplit, SERVE_ONLY, THETA,
};
use crate::check::sampled;
use crate::inputs::{Inputs, Scale};
use crate::report::Metrics;
use crate::stats::Samples;
use crate::workloads::Workload;

/// Shards in the store: one per core of the two-core reference host, fixed
/// so that the store is the same on every host.
const SHARDS: usize = 2;
const WARMUP: usize = 16;
const CHECK_EVERY: u64 = 16;
/// Queries whose shards are also searched one by one for `shard.lane_skew`.
const SKEW_SAMPLE: usize = 40;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let span = tracer.open("inputs.generate", 0, None);
    let inputs = Inputs::generate(Workload::ScanCold, ctx.seed, Scale::Full);
    tracer.close(span);
    let corpus = &inputs.corpus;
    let threads = cores();

    let (view, _dir, setup_s, build_s) = repeat_setup(ctx, "store", |dir, i| {
        let start = Instant::now();
        let span = tracer.open("index.build", i, None);
        build_sharded(
            corpus,
            index_config(),
            dir,
            SHARDS,
            &ShardedBuildOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        tracer.close(span);
        let build = start.elapsed();
        let span = tracer.open("index.open", i, None);
        let view = ShardedIndex::open_with(dir, CacheConfig::default(), ReadOptions::default())
            .map_err(|e| e.to_string())?;
        tracer.close(span);
        Ok((view, build))
    })?;
    let searcher = view
        .searcher_with_filter(PrefixFilter::Adaptive)
        .map_err(|e| e.to_string())?
        .threads(threads);

    let queries = &inputs.queries;
    for q in &queries[..WARMUP] {
        searcher.search(q, THETA).map_err(|e| e.to_string())?;
    }

    let mut latency = Samples::default();
    let mut split = TraceSplit::default();
    let mut agg = Agg::new(SHARDS);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut busy = 0.0;
    let mut checks = Vec::new();
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut i = WARMUP;
    while start.elapsed() < run_for {
        let q = i % queries.len();
        let request = (i - WARMUP) as u64;
        let traced = tracer.traces(request);
        let t0 = Instant::now();
        let result = searcher.search(&queries[q], THETA);
        let t1 = Instant::now();
        attempted += 1;
        match result {
            Ok(o) => {
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                latency.push(ms);
                split.push(traced, ms);
                busy += (t1 - t0).as_secs_f64();
                agg.add(&o.stats);
                if traced {
                    trace_query(tracer, "search", request, t0, t1, &o.stats, SHARDS as f64);
                }
                if sampled(inputs.check_seed, q as u64, CHECK_EVERY) && checks.len() < 16 {
                    checks.push((q, o.enumerate_all()));
                }
            }
            Err(e) => {
                eprintln!("scan-cold: query {q} failed: {e}");
                failed += 1;
                latency.push(f64::INFINITY);
            }
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    // Theorem 2: with prefix filtering disabled the search is exact, so it
    // is the reference for the adaptive plan's answers.
    let span = tracer.open("check", 0, None);
    let reference = view
        .searcher_with_filter(PrefixFilter::Disabled)
        .map_err(|e| e.to_string())?;
    let mut check = Ok(format!(
        "{} sampled answers equal the unfiltered search",
        checks.len()
    ));
    if checks.is_empty() {
        check = Err("no answer was sampled for checking".to_string());
    }
    for (q, got) in &checks {
        let want = reference
            .search(&queries[*q], THETA)
            .map_err(|e| e.to_string())?
            .enumerate_all();
        if *got != want {
            check = Err(format!(
                "query {q}: {} sequences, reference {}",
                got.len(),
                want.len()
            ));
            break;
        }
    }
    tracer.close(span);

    let mut index_bytes = 0;
    for s in 0..view.num_shards() {
        index_bytes += view.shard(s).size_bytes().map_err(|e| e.to_string())?;
    }
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
        layers.set("batch.busy_ratio", busy / wall);
        layers.set("trace.overhead_ratio", split.overhead_ratio()?);
        layers.set(
            "trace.unattributed_ratio",
            crate::trace::unattributed_ratio(&tracer.spans(), &["search"]),
        );
        layers.set("error_ratio", failed as f64 / attempted.max(1) as f64);
        layers.set("shard.lane_skew", lane_skew(ctx, &view, queries)?);
        build_replays(tracer, corpus, queries, &mut layers);
        // Read replays run on shard 0 with the sampled queries' shard-0
        // matches.
        let base1 = view.shard_base(1);
        let sample_queries: Vec<Vec<u32>> =
            checks.iter().map(|(q, _)| queries[*q].clone()).collect();
        let texts: Vec<Vec<u32>> = checks
            .iter()
            .map(|(_, seqs)| matched_texts(seqs, base1))
            .collect();
        let read_ns_per_byte = read_replays(
            tracer,
            view.shard(0).dir(),
            &sample_queries,
            &texts,
            &mut layers,
        )?;
        agg.apply(&mut layers, read_ns_per_byte);
        layers.not_applicable(SERVE_ONLY);
    }

    let mut info = common_info(corpus, index_bytes);
    info.push(("shards", Json::UInt(SHARDS as u64)));
    info.push(("scatter_threads", Json::UInt(threads as u64)));
    info.push(("callers", Json::UInt(1)));
    Ok(Outcome {
        end_to_end: e2e,
        layers,
        attempted,
        failed,
        check,
        info,
    })
}

/// Mean over sample queries of the slowest shard's search time over the
/// mean shard's, each shard searched on its own.
fn lane_skew(ctx: &Ctx, view: &ShardedIndex, queries: &[Vec<u32>]) -> Result<f64, String> {
    let lanes: Vec<NearDupSearcher<'_, _>> = (0..view.num_shards())
        .map(|s| NearDupSearcher::with_prefix_filter(&**view.shard(s), PrefixFilter::Adaptive))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut sum = 0.0;
    let sample = &queries[..SKEW_SAMPLE.min(queries.len())];
    for (i, q) in sample.iter().enumerate() {
        let mut times = Vec::with_capacity(lanes.len());
        for lane in &lanes {
            let t0 = Instant::now();
            lane.search(q, THETA).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            ctx.tracer.record("shard.search", i as u64, None, t0, t1);
            times.push((t1 - t0).as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let max = times.iter().cloned().fold(0.0, f64::max);
        sum += max / mean;
    }
    Ok(sum / sample.len() as f64)
}
