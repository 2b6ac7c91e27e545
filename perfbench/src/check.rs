//! Exact references the workloads' outputs are checked against.

use std::collections::HashMap;

use ndss::corpus::{InMemoryCorpus, SeqRef};
use ndss::hash::{HashValue, MinHasher, SplitMix64, TokenId};
use ndss::query::bruteforce::definition2_scan;

/// Whether output `i` is in the checked sample: about one in `every`,
/// chosen by the run's check seed.
pub fn sampled(check_seed: u64, i: u64, every: u64) -> bool {
    SplitMix64::new(check_seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .next_u64()
        .is_multiple_of(every)
}

/// `bruteforce::definition2_scan` over a corpus, restricted to the texts
/// that can hold an answer.
///
/// A sequence's min-hash under function `f` equals the query's only if one
/// of its tokens hashes to that value, so a text whose tokens reach the
/// query's min-hash under fewer than β functions has no sequence with β
/// collisions. The scan itself is the unmodified quadratic reference.
pub struct Definition2Oracle<'a> {
    corpus: &'a InMemoryCorpus,
    hasher: MinHasher,
    t: usize,
    /// Per function: hash value → corpus tokens with that hash.
    tokens_by_hash: Vec<HashMap<HashValue, Vec<TokenId>>>,
}

impl<'a> Definition2Oracle<'a> {
    pub fn new(corpus: &'a InMemoryCorpus, hasher: MinHasher, t: usize) -> Self {
        let mut distinct: Vec<TokenId> =
            corpus.iter().flat_map(|(_, text)| text.to_vec()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let tokens_by_hash = (0..hasher.k())
            .map(|f| {
                let mut map: HashMap<HashValue, Vec<TokenId>> = HashMap::new();
                for &tok in &distinct {
                    map.entry(hasher.function(f).hash(tok))
                        .or_default()
                        .push(tok);
                }
                map
            })
            .collect();
        Definition2Oracle {
            corpus,
            hasher,
            t,
            tokens_by_hash,
        }
    }

    /// Every sequence of length ≥ t with at least β = ⌈kθ⌉ collisions.
    pub fn scan(&self, query: &[TokenId], theta: f64) -> Result<Vec<SeqRef>, String> {
        let k = self.hasher.k();
        let beta = ndss::hash::minhash::collision_threshold(k, theta);
        let sketch = self.hasher.sketch(query);
        let mut funcs_of: HashMap<TokenId, Vec<usize>> = HashMap::new();
        for f in 0..k {
            for &tok in self.tokens_by_hash[f]
                .get(&sketch.value(f))
                .into_iter()
                .flatten()
            {
                funcs_of.entry(tok).or_default().push(f);
            }
        }
        let mut candidates = Vec::new();
        let mut reached = vec![false; k];
        for (id, text) in self.corpus.iter() {
            reached.iter_mut().for_each(|r| *r = false);
            for tok in text {
                for &f in funcs_of.get(tok).into_iter().flatten() {
                    reached[f] = true;
                }
            }
            if reached.iter().filter(|&&r| r).count() >= beta {
                candidates.push(id);
            }
        }
        let sub = InMemoryCorpus::from_texts(
            candidates
                .iter()
                .map(|&id| self.corpus.text(id).to_vec())
                .collect(),
        );
        let found = definition2_scan(&sub, &self.hasher, query, theta, self.t)
            .map_err(|e| e.to_string())?;
        let mut out: Vec<SeqRef> = found
            .into_iter()
            .map(|s| SeqRef::new(candidates[s.text as usize], s.span.start, s.span.end))
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

/// One ranked match in a protocol-neutral form: text, collisions, merged
/// spans.
pub type Ranked = (u32, u32, Vec<(u32, u32)>);

/// Compares a daemon answer with the exact reference, given that texts
/// with ids below `visible` were acknowledged before the request was sent
/// and texts at or above `invisible` had not been sent to the daemon when
/// its answer arrived. Texts in between may or may not have been served.
pub fn compare_ranked(
    got: &[Ranked],
    want: &[Ranked],
    visible: u32,
    invisible: u32,
) -> Result<(), String> {
    let sure = |list: &[Ranked]| -> Vec<Ranked> {
        let mut v: Vec<Ranked> = list.iter().filter(|m| m.0 < visible).cloned().collect();
        v.sort();
        v
    };
    if sure(got) != sure(want) {
        return Err(format!(
            "answers over texts < {visible} differ: got {:?}, want {:?}",
            sure(got),
            sure(want)
        ));
    }
    for m in got.iter().filter(|m| m.0 >= visible) {
        if m.0 >= invisible || !want.contains(m) {
            return Err(format!("unexpected match {m:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::owt_corpus;
    use ndss::corpus::CorpusSource;

    #[test]
    fn pruned_oracle_equals_the_full_scan() {
        let (corpus, planted) = owt_corpus(20, 5);
        let hasher = MinHasher::new(16, 3);
        let oracle = Definition2Oracle::new(&corpus, MinHasher::new(16, 3), 25);
        let mut queries: Vec<Vec<TokenId>> = planted
            .iter()
            .take(4)
            .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
            .collect();
        queries.push(corpus.text(7)[10..74].to_vec());
        queries.push((50_000..50_064).collect());
        let mut matched = 0;
        for q in &queries {
            for theta in [0.5, 0.8] {
                let want = definition2_scan(&corpus, &hasher, q, theta, 25).unwrap();
                let got = oracle.scan(q, theta).unwrap();
                assert_eq!(got, want);
                matched += usize::from(!want.is_empty());
            }
        }
        assert!(matched >= 4, "the sample must include real matches");
    }

    #[test]
    fn ranked_comparison_allows_only_in_flight_texts_to_differ() {
        let a: Ranked = (3, 30, vec![(0, 40)]);
        let late: Ranked = (120, 32, vec![(5, 70)]);
        let both = vec![a.clone(), late];
        let only_a = vec![a];
        // Text 120 was in flight: it may be present or absent.
        assert!(compare_ranked(&only_a, &both, 100, 130).is_ok());
        assert!(compare_ranked(&both, &both, 100, 130).is_ok());
        // A missing acknowledged text, a wrong span, or a text not yet sent
        // all fail.
        assert!(compare_ranked(&[], &only_a, 100, 130).is_err());
        assert!(compare_ranked(&[(3, 30, vec![(0, 41)])], &only_a, 100, 130).is_err());
        assert!(compare_ranked(&both, &both, 100, 110).is_err());
    }
}
