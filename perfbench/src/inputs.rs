//! Seeded input generation. The same seed yields byte-identical inputs;
//! the program under test receives only what is generated here.

use ndss::corpus::{CorpusSource, InMemoryCorpus, PlantedDuplicate, SyntheticCorpusBuilder};
use ndss::hash::{SplitMix64, TokenId, Xoshiro256StarStar};
use ndss::lm::memorization::generate_query_windows;
use ndss::lm::{MemorizationConfig, NGramModel};

use crate::workloads::Workload;

/// Query length in tokens (the paper's x = 64 memorization windows).
pub const QUERY_LEN: usize = 64;

/// Input sizes: `Full` for measurement, `Tiny` for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Everything one run consumes.
pub struct Inputs {
    /// The corpus the index is built over.
    pub corpus: InMemoryCorpus,
    /// The query stream, in the order it is sent (wrapped around if exhausted).
    pub queries: Vec<Vec<TokenId>>,
    /// Fresh texts for `POST /ingest` (serve-rw only).
    pub ingest: Vec<Vec<TokenId>>,
    /// Seed for choosing which outputs the correctness check re-derives.
    pub check_seed: u64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut seeds = SplitMix64::new(seed);
        let mut next = || seeds.next_u64();
        let (corpus_seed, query_seed, novel_seed, ingest_seed, check_seed) =
            (next(), next(), next(), next(), next());
        let tiny = scale == Scale::Tiny;
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        match workload {
            Workload::Memorize => {
                // ~0.8 M tokens: decoded postings fit the 64 MiB posting cache.
                let (corpus, _) = owt_corpus(pick(2_000, 60), corpus_seed);
                let model = NGramModel::train(&corpus, 4).expect("training the n-gram model");
                let config = MemorizationConfig::new(pick(1_024, 4), 256)
                    .window(QUERY_LEN)
                    .seed(query_seed);
                let queries = generate_query_windows(&model, &config);
                Inputs {
                    corpus,
                    queries,
                    ingest: Vec::new(),
                    check_seed,
                }
            }
            Workload::ScanCold | Workload::ServeRw => {
                // scan-cold: ~6.4 M tokens, decoded postings ≥ 4× the posting
                // cache; serve-rw: ~0.8 M tokens, so a search costs a small
                // share of the gap between two due searches.
                let texts = match workload {
                    Workload::ScanCold => 16_000,
                    _ => 2_000,
                };
                let (corpus, planted) = owt_corpus(pick(texts, 60), corpus_seed);
                let (novel, _) = owt_corpus(pick(200, 10), novel_seed);
                let queries = mixed_queries(&corpus, &planted, &novel, pick(2_000, 20), query_seed);
                let ingest = if workload == Workload::ServeRw {
                    let (fresh, _) = owt_corpus(pick(2_000, 10), ingest_seed);
                    (0..fresh.num_texts() as u32)
                        .map(|i| fresh.text(i).to_vec())
                        .collect()
                } else {
                    Vec::new()
                };
                Inputs {
                    corpus,
                    queries,
                    ingest,
                    check_seed,
                }
            }
        }
    }

    /// Every generated token, length and seed, as bytes (for comparing two
    /// generations).
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |seq: &[TokenId]| {
            out.extend_from_slice(&(seq.len() as u64).to_le_bytes());
            for t in seq {
                out.extend_from_slice(&t.to_le_bytes());
            }
        };
        for (_, text) in self.corpus.iter() {
            put(text);
        }
        for q in self.queries.iter().chain(&self.ingest) {
            put(q);
        }
        out.extend_from_slice(&self.check_seed.to_le_bytes());
        out
    }
}

/// An OpenWebText-like corpus: the settings of `ndss_bench::owt_like`
/// (Zipfian tokens over a 32K vocabulary, 200–600-token texts, planted
/// near-duplicate copies), with the text count as a parameter.
pub fn owt_corpus(num_texts: usize, seed: u64) -> (InMemoryCorpus, Vec<PlantedDuplicate>) {
    SyntheticCorpusBuilder::new(seed)
        .num_texts(num_texts)
        .text_len(200, 600)
        .vocab_size(32_000)
        .zipf_exponent(1.05)
        .duplicates_per_text(0.4)
        .dup_len(60, 150)
        .mutation_rate(0.05)
        .build()
}

/// Independent random queries: even positions are windows of planted
/// near-duplicate copies (they have sources in the corpus), odd positions
/// windows of `novel`, a corpus drawn from the same distribution under
/// another seed (they almost never match).
fn mixed_queries(
    corpus: &InMemoryCorpus,
    planted: &[PlantedDuplicate],
    novel: &InMemoryCorpus,
    count: usize,
    seed: u64,
) -> Vec<Vec<TokenId>> {
    let copies: Vec<&PlantedDuplicate> = planted
        .iter()
        .filter(|p| p.dst.span.len() as usize >= QUERY_LEN)
        .collect();
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let (text, lo, hi) = if i % 2 == 0 && !copies.is_empty() {
            let p = copies[rng.next_bounded(copies.len() as u64) as usize];
            let text = corpus.text(p.dst.text);
            (text, p.dst.span.start as usize, p.dst.span.end as usize + 1)
        } else {
            let text = novel.text(rng.next_bounded(novel.num_texts() as u64) as u32);
            (text, 0, text.len())
        };
        // A random QUERY_LEN window inside text[lo..hi].
        let start = lo + rng.next_bounded((hi - lo - QUERY_LEN + 1) as u64) as usize;
        queries.push(text[start..start + QUERY_LEN].to_vec());
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_byte_identical_inputs() {
        for workload in [Workload::Memorize, Workload::ScanCold, Workload::ServeRw] {
            let a = Inputs::generate(workload, 11, Scale::Tiny).to_bytes();
            let b = Inputs::generate(workload, 11, Scale::Tiny).to_bytes();
            let c = Inputs::generate(workload, 12, Scale::Tiny).to_bytes();
            assert_eq!(a, b, "{workload:?}");
            assert_ne!(a, c, "{workload:?}");
        }
    }

    #[test]
    fn queries_have_the_query_length() {
        for workload in [Workload::Memorize, Workload::ScanCold] {
            let inputs = Inputs::generate(workload, 3, Scale::Tiny);
            assert!(!inputs.queries.is_empty());
            assert!(inputs.queries.iter().all(|q| q.len() == QUERY_LEN));
        }
    }
}
