//! The three workloads and what they share: the fixed index settings, the
//! aggregation of per-query counts, and the per-layer replays.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ndss::corpus::{CorpusSource, InMemoryCorpus};
use ndss::hash::TokenId;
use ndss::index::{CacheConfig, DiskIndex, IndexAccess, IndexConfig, IoStats, ReadOptions};
use ndss::json::Json;
use ndss::query::planner::plan_for_sketch;
use ndss::query::QueryStats;
use ndss::windows::WindowGenerator;

use crate::report::Metrics;
use crate::stats::{ratio, Samples};
use crate::trace::{SpanId, Tracer};

pub mod memorize;
pub mod scan_cold;
pub mod serve_rw;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["memorize", "scan-cold", "serve-rw"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Memorize,
    ScanCold,
    ServeRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "memorize" => Some(Workload::Memorize),
            "scan-cold" => Some(Workload::ScanCold),
            "serve-rw" => Some(Workload::ServeRw),
            _ => None,
        }
    }
}

// Fixed for every workload, so that a change of library defaults does not
// silently change what is measured: k = 32, t = 25, θ = 0.8, format v5,
// the adaptive prefix filter, the default caches and pread reads.
pub const K: usize = 32;
pub const T: usize = 25;
pub const THETA: f64 = 0.8;
const HASH_SEED: u64 = 1234;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub fn index_config() -> IndexConfig {
    IndexConfig::new(K, T, HASH_SEED).bit_packed(true)
}

/// Core count; load uses at most this many threads and connections.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer metrics only the serving workload exercises.
pub const SERVE_ONLY: &[&str] = &[
    "serve.client_minus_server_ms",
    "frame.codec_us",
    "serve.shed",
    "serve.gen_late_p95_ms",
    "ingest.p50_ms",
    "ingest.p95_ms",
    "ingest.wal_bytes_per_text",
    "ingest.compactions",
    "compact.busy_s",
    "compact.write_bytes_per_ingested_byte",
    "ingest.pending_texts_max",
];

/// The distinct texts below `limit` that answer `seqs` touch.
pub fn matched_texts(seqs: &[ndss::corpus::SeqRef], limit: u32) -> Vec<u32> {
    let mut texts: Vec<u32> = seqs.iter().map(|s| s.text).filter(|&t| t < limit).collect();
    texts.sort_unstable();
    texts.dedup();
    texts
}

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub work: PathBuf,
}

/// A correctness check's outcome: what was checked, or the first output
/// that disagreed with its reference.
pub type Verdict = Result<String, String>;

/// What every workload hands back.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub check: Verdict,
    /// Workload facts for the host block.
    pub info: Vec<(&'static str, Json)>,
}

/// The facts every workload reports in the host block.
pub fn common_info(corpus: &InMemoryCorpus, index_bytes: u64) -> Vec<(&'static str, Json)> {
    let cache = CacheConfig::default();
    vec![
        ("texts", Json::UInt(corpus.num_texts() as u64)),
        ("tokens", Json::UInt(corpus.total_tokens())),
        ("index_bytes", Json::UInt(index_bytes)),
        ("format", Json::Str(index_config().format_name().into())),
        ("read_path", Json::Str("pread".into())),
        ("filter", Json::Str("adaptive".into())),
        (
            "posting_cache_bytes",
            Json::UInt(cache.posting_budget as u64),
        ),
        ("zone_cache_bytes", Json::UInt(cache.zone_budget as u64)),
        ("k", Json::UInt(K as u64)),
        ("t", Json::UInt(T as u64)),
        ("theta", Json::Float(THETA)),
    ]
}

/// Runs `set_up` [`SETUPS`] times, each into a fresh directory under the
/// work directory, keeping the last result. Returns it with the median
/// set-up time and the median of the build part (`set_up` reports it).
pub fn repeat_setup<R>(
    ctx: &Ctx,
    name: &str,
    mut set_up: impl FnMut(&Path, u64) -> Result<(R, Duration), String>,
) -> Result<(R, PathBuf, f64, f64), String> {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut kept: Option<(R, PathBuf)> = None;
    for i in 0..SETUPS {
        let dir = ctx.work.join(format!("{name}-{i}"));
        let start = Instant::now();
        let span = ctx.tracer.open("setup", i as u64, None);
        let (ready, build) = set_up(&dir, i as u64)?;
        ctx.tracer.close(span);
        totals.push(start.elapsed().as_secs_f64());
        builds.push(build.as_secs_f64());
        if let Some((old, old_dir)) = kept.replace((ready, dir)) {
            drop(old);
            std::fs::remove_dir_all(&old_dir).map_err(|e| e.to_string())?;
        }
    }
    let (ready, dir) = kept.expect("at least one set-up");
    Ok((
        ready,
        dir,
        crate::stats::median(&totals),
        crate::stats::median(&builds),
    ))
}

/// Sums of the per-query counts the query engine returns, over one run.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub queries: u64,
    /// Parallel lanes each query's stage times are summed over (shards).
    pub lanes: f64,
    pub total_s: f64,
    pub sketch_s: f64,
    pub plan_s: f64,
    pub gather_s: f64,
    pub count_s: f64,
    pub probe_s: f64,
    pub io_bytes: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub zone_hits: f64,
    pub zone_misses: f64,
    pub lists_deferred: f64,
    pub postings: f64,
    pub candidates: f64,
    pub matched: f64,
}

impl Agg {
    pub fn new(lanes: usize) -> Agg {
        Agg {
            lanes: lanes as f64,
            ..Agg::default()
        }
    }

    pub fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.total_s += s.total.as_secs_f64();
        self.sketch_s += s.stage_sketch.as_secs_f64();
        self.plan_s += s.stage_plan.as_secs_f64();
        self.gather_s += s.stage_gather.as_secs_f64();
        self.count_s += s.stage_count.as_secs_f64();
        self.probe_s += s.stage_probe.as_secs_f64();
        self.io_bytes += s.io_bytes as f64;
        self.cache_hits += s.cache_hits as f64;
        self.cache_misses += s.cache_misses as f64;
        self.zone_hits += s.zone_hits as f64;
        self.zone_misses += s.zone_misses as f64;
        self.lists_deferred += s.lists_long as f64;
        self.postings += s.postings_read as f64;
        self.candidates += s.candidate_texts as f64;
        self.matched += s.matched_texts as f64;
    }

    /// Stage durations of one query, as wall time: per-lane stage times are
    /// summed over lanes that ran side by side, so they are divided by the
    /// lane count.
    pub fn stage_list(s: &QueryStats, lanes: f64) -> [(&'static str, Duration); 5] {
        let wall = |d: Duration| d.div_f64(lanes.max(1.0));
        [
            ("search.sketch", wall(s.stage_sketch)),
            ("search.plan", wall(s.stage_plan)),
            ("search.gather", wall(s.stage_gather)),
            ("search.count", wall(s.stage_count)),
            ("search.probe", wall(s.stage_probe)),
        ]
    }

    /// The planner, stage, read and cache metrics. `read_ns_per_byte` is
    /// the read path's cost per byte fetched from an index file (list read
    /// plus decode, from [`read_replays`]); with the run's bytes fetched per
    /// query it estimates the share of query time spent in the read path.
    pub fn apply(&self, m: &mut Metrics, read_ns_per_byte: f64) {
        let n = self.queries.max(1) as f64;
        let per_ms = |s: f64| s * 1e3 / n / self.lanes.max(1.0);
        m.set("planner.lists_deferred", self.lists_deferred / n);
        m.set("planner.postings_per_query", self.postings / n);
        m.set("planner.candidates_per_query", self.candidates / n);
        m.set("planner.match_ratio", ratio(self.matched, self.candidates));
        m.set(
            "planner.postings_per_match",
            ratio(self.postings, self.matched),
        );
        m.set("search.sketch_ms", per_ms(self.sketch_s));
        m.set("search.plan_ms", per_ms(self.plan_s));
        m.set("search.gather_ms", per_ms(self.gather_s));
        m.set("search.count_ms", per_ms(self.count_s));
        m.set("search.probe_ms", per_ms(self.probe_s));
        let staged = self.sketch_s + self.plan_s + self.gather_s + self.count_s + self.probe_s;
        let unattributed = self.total_s - staged / self.lanes.max(1.0);
        m.set("search.unattributed_ms", unattributed.max(0.0) * 1e3 / n);
        m.set("read.io_bytes_per_query", self.io_bytes / n);
        m.set(
            "read.share",
            ratio(
                self.io_bytes * read_ns_per_byte * 1e-9 / self.lanes.max(1.0),
                self.total_s,
            ),
        );
        m.set(
            "cache.posting_hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        // Only zone maps (formats before v5) consult the zone cache; v5
        // lists carry per-block skip entries instead.
        if self.zone_hits + self.zone_misses > 0.0 {
            m.set(
                "cache.zone_hit_ratio",
                ratio(self.zone_hits, self.zone_hits + self.zone_misses),
            );
        } else {
            m.not_applicable(&["cache.zone_hit_ratio"]);
        }
    }
}

/// Latencies of traced and untraced requests, for `trace.overhead_ratio`.
#[derive(Default)]
pub struct TraceSplit {
    pub traced: Samples,
    pub untraced: Samples,
}

impl TraceSplit {
    pub fn push(&mut self, traced: bool, latency_ms: f64) {
        if traced {
            self.traced.push(latency_ms);
        } else {
            self.untraced.push(latency_ms);
        }
    }

    /// Traced over untraced median latency.
    pub fn overhead_ratio(&self) -> Result<f64, String> {
        Ok(self.traced.percentile(50.0)? / self.untraced.percentile(50.0)?)
    }
}

/// Build-side replays: window generation and sketching, timed over a fixed
/// sample of the workload's own inputs.
pub fn build_replays(
    tracer: &Tracer,
    corpus: &InMemoryCorpus,
    queries: &[Vec<TokenId>],
    m: &mut Metrics,
) {
    const SAMPLE_TOKENS: u64 = 200_000;
    let hasher = index_config().hasher();
    let mut generator = WindowGenerator::new();
    let mut out = Vec::new();
    let (mut tokens, mut windows) = (0u64, 0u64);
    let span = tracer.open("windows.generate", 0, None);
    let start = Instant::now();
    for (_, text) in corpus.iter() {
        for func in 0..K {
            out.clear();
            generator.generate(&hasher, func, text, T, &mut out);
            windows += out.len() as u64;
        }
        tokens += text.len() as u64;
        if tokens >= SAMPLE_TOKENS {
            break;
        }
    }
    let elapsed = start.elapsed();
    tracer.close(span);
    m.set(
        "windows.generate_ns_per_token",
        elapsed.as_nanos() as f64 / tokens as f64,
    );
    m.set("windows.per_token", windows as f64 / tokens as f64);

    let sample = &queries[..queries.len().min(1_000)];
    let span = tracer.open("hash.sketch", 0, None);
    let start = Instant::now();
    for _ in 0..4 {
        for q in sample {
            std::hint::black_box(hasher.sketch(std::hint::black_box(q)));
        }
    }
    let elapsed = start.elapsed();
    tracer.close(span);
    m.set(
        "hash.sketch_us",
        elapsed.as_secs_f64() * 1e6 / (4 * sample.len()) as f64,
    );
}

/// Read-path replays on index directory `dir`, caches disabled: list decode
/// per read path on the sample queries' `(func, hash)` pairs, and zone-map
/// probes for `(deferred func, hash, text)` triples, where `texts[i]` are
/// texts that sample query `i` matched (local to `dir`). Returns the pread
/// path's cost per byte read.
pub fn read_replays(
    tracer: &Tracer,
    dir: &Path,
    queries: &[Vec<TokenId>],
    texts: &[Vec<u32>],
    m: &mut Metrics,
) -> Result<f64, String> {
    let err = |e: ndss::index::IndexError| e.to_string();
    let hasher = index_config().hasher();
    let sketches: Vec<_> = queries.iter().map(|q| hasher.sketch(q)).collect();
    let mut ns_per_byte = 0.0;
    for (name, io, span_name) in [
        (
            "read.decode_ns_per_posting.pread",
            ReadOptions::default(),
            "read.decode.pread",
        ),
        (
            "read.decode_ns_per_posting.mmap",
            ReadOptions::with_mmap(),
            "read.decode.mmap",
        ),
    ] {
        let index = DiskIndex::open_with_io(dir, CacheConfig::disabled(), io).map_err(err)?;
        let acc = IoStats::default();
        let mut postings = 0u64;
        let mut bytes = 0u64;
        let mut elapsed = Duration::ZERO;
        // The first pass warms the page cache; the second is timed.
        for pass in 0..2 {
            let span = if pass == 1 {
                tracer.open(span_name, 0, None)
            } else {
                None
            };
            let start = Instant::now();
            let bytes_before = acc.snapshot().bytes;
            for sketch in &sketches {
                for func in 0..K {
                    let list = index
                        .read_list_into(func, sketch.value(func), &acc)
                        .map_err(err)?;
                    if pass == 1 {
                        postings += list.len() as u64;
                    }
                }
            }
            if pass == 1 {
                elapsed = start.elapsed();
                bytes = acc.snapshot().bytes - bytes_before;
            }
            tracer.close(span);
        }
        m.set(name, elapsed.as_nanos() as f64 / postings.max(1) as f64);
        if name.ends_with("pread") {
            ns_per_byte = elapsed.as_nanos() as f64 / bytes.max(1) as f64;
        }
    }

    let index = DiskIndex::open_with_cache(dir, CacheConfig::disabled()).map_err(err)?;
    let acc = IoStats::default();
    let beta = ndss::hash::minhash::collision_threshold(K, THETA);
    let mut probes = Vec::new();
    for (sketch, texts) in sketches.iter().zip(texts) {
        let plan = plan_for_sketch(&index, sketch, beta).map_err(|e| e.to_string())?;
        let funcs: Vec<usize> = if plan.deferred.is_empty() {
            (0..K).collect()
        } else {
            plan.deferred
        };
        for &func in &funcs {
            for &text in texts {
                probes.push((func, sketch.value(func), text));
            }
        }
    }
    let span = tracer.open("read.probe", 0, None);
    let start = Instant::now();
    for &(func, hash, text) in &probes {
        std::hint::black_box(
            index
                .read_postings_for_text_into(func, hash, text, &acc)
                .map_err(err)?,
        );
    }
    let elapsed = start.elapsed();
    tracer.close(span);
    m.set(
        "read.probe_us",
        elapsed.as_secs_f64() * 1e6 / probes.len().max(1) as f64,
    );
    Ok(ns_per_byte)
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes this process has caused to be written to storage.
pub fn write_bytes() -> f64 {
    proc_field("/proc/self/io", "write_bytes:").unwrap_or(0.0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Spans recorded on one request's behalf: the request span with its
/// stage children.
pub fn trace_query(
    tracer: &Tracer,
    name: &'static str,
    request: u64,
    start: Instant,
    end: Instant,
    stats: &QueryStats,
    lanes: f64,
) -> SpanId {
    let id = tracer.record(name, request, None, start, end);
    tracer.stages(id, request, start, &Agg::stage_list(stats, lanes));
    id
}
