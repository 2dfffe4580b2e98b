//! The workload inputs: generated once per seed into a work directory,
//! then read back by the measuring process, which never holds the
//! generator's in-memory data.
//!
//! Files: `left.nt`, `right.nt` (N-Triples), `truth.tsv` and
//! `initial.tsv` (one `left<TAB>right` IRI pair per line) and `ops.tsv`
//! (one op-script iteration per line: `entity<TAB>feedback<TAB>pick`,
//! where `feedback` is `1` on the fixed subset of iterations that send
//! feedback on `serve_explore` and `pick` chooses a link of the latest
//! listing, see [`crate::script::run_script`]).

use std::collections::HashSet;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

use alex_datagen::{degrade, generate, PaperPair};
use alex_rdf::ntriples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's Fig. 2a pair, at a scale where per-request work is in
/// the milliseconds and the session grows to thousands of candidates.
pub const PAIR: PaperPair = PaperPair::DbpediaNytimes;
pub const SCALE: f64 = 4.0;
/// Share of `serve_explore` iterations that send feedback.
pub const EXPLORE_FEEDBACK_SHARE: f64 = 1.0 / 3.0;

/// An IRI pair as written in the TSV files.
pub type IriPair = (String, String);

/// One op-script iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Left entity whose describe query the curator asks.
    pub entity: String,
    /// Whether this iteration sends feedback on `serve_explore`.
    pub explore_feedback: bool,
    /// Uniform draw that picks the queried link from the latest listing.
    pub pick: u64,
}

/// Deterministic op script: `n` describe-query targets drawn from the
/// ground truth's left entities (sorted, so the draw does not depend on
/// hash order), each flagged for feedback with a fixed probability and
/// carrying a draw that picks a listed link.
pub fn op_script(truth: &[IriPair], n: usize, seed: u64) -> Vec<Op> {
    let mut lefts: Vec<&str> = truth.iter().map(|(l, _)| l.as_str()).collect();
    lefts.sort_unstable();
    lefts.dedup();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0905_5C41_97F1_D3E1);
    (0..n)
        .map(|_| Op {
            entity: lefts[rng.gen_range(0..lefts.len())].to_string(),
            explore_feedback: rng.gen_bool(EXPLORE_FEEDBACK_SHARE),
            pick: rng.gen_range(0..u64::MAX),
        })
        .collect()
}

/// Generates the pair, ground truth, initial links and op script for
/// `seed` into `dir`.
pub fn generate_into(dir: &Path, seed: u64, ops: usize) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let pair = generate(&PAIR.spec(SCALE, seed));
    for (name, store) in [("left.nt", &pair.left), ("right.nt", &pair.right)] {
        let mut w = BufWriter::new(fs::File::create(dir.join(name))?);
        ntriples::write_store(store, &mut w)?;
        w.flush()?;
    }
    let to_pairs = |links: &mut dyn Iterator<Item = &alex_rdf::Link>| -> Vec<IriPair> {
        let mut v: Vec<IriPair> = links
            .map(|l| {
                (
                    pair.left.iri_str(l.left).to_string(),
                    pair.right.iri_str(l.right).to_string(),
                )
            })
            .collect();
        v.sort_unstable();
        v
    };
    let truth = to_pairs(&mut pair.truth.iter());
    let (p0, r0) = PAIR.initial_quality();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1E5_1A1E_0000_0001);
    let initial = degrade(&pair.truth, p0, r0, &mut rng);
    let initial = to_pairs(&mut initial.iter());
    write_pairs(&dir.join("truth.tsv"), &truth)?;
    write_pairs(&dir.join("initial.tsv"), &initial)?;
    let mut w = BufWriter::new(fs::File::create(dir.join("ops.tsv"))?);
    for op in op_script(&truth, ops, seed) {
        let feedback = u8::from(op.explore_feedback);
        writeln!(w, "{}\t{feedback}\t{}", op.entity, op.pick)?;
    }
    w.flush()
}

fn write_pairs(path: &Path, pairs: &[IriPair]) -> std::io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    for (l, r) in pairs {
        writeln!(w, "{l}\t{r}")?;
    }
    w.flush()
}

pub fn read_pairs(path: &Path) -> Result<Vec<IriPair>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split_once('\t')
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .ok_or_else(|| format!("{}: bad line {line:?}", path.display()))
        })
        .collect()
}

pub fn read_ops(path: &Path) -> Result<Vec<Op>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let bad = || format!("{}: bad op line {line:?}", path.display());
            let mut fields = line.split('\t');
            let (Some(e), Some(f @ ("0" | "1")), Some(pick), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            Ok(Op {
                entity: e.to_string(),
                explore_feedback: f == "1",
                pick: pick.parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// Everything a workload reads from the work directory.
pub struct Inputs {
    pub dir: std::path::PathBuf,
    pub truth: HashSet<IriPair>,
    pub initial: Vec<IriPair>,
    pub ops: Vec<Op>,
}

impl Inputs {
    pub fn read(dir: &Path) -> Result<Self, String> {
        Ok(Self {
            dir: dir.to_path_buf(),
            truth: read_pairs(&dir.join("truth.tsv"))?.into_iter().collect(),
            initial: read_pairs(&dir.join("initial.tsv"))?,
            ops: read_ops(&dir.join("ops.tsv"))?,
        })
    }

    pub fn left(&self) -> std::path::PathBuf {
        self.dir.join("left.nt")
    }

    pub fn right(&self) -> std::path::PathBuf {
        self.dir.join("right.nt")
    }
}

/// F1 of `links` against `truth`, both as IRI pairs.
pub fn f1(links: &HashSet<IriPair>, truth: &HashSet<IriPair>) -> f64 {
    let correct = links.intersection(truth).count() as f64;
    if correct == 0.0 {
        return 0.0;
    }
    let p = correct / links.len() as f64;
    let r = correct / truth.len() as f64;
    2.0 * p * r / (p + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<IriPair> {
        (0..50)
            .map(|i| (format!("http://l/{i}"), format!("http://r/{i}")))
            .collect()
    }

    #[test]
    fn op_script_is_deterministic_per_seed() {
        let t = truth();
        assert_eq!(op_script(&t, 500, 11), op_script(&t, 500, 11));
        assert_ne!(op_script(&t, 500, 11), op_script(&t, 500, 12));
        // Input order does not matter, only the set.
        let mut rev = t.clone();
        rev.reverse();
        assert_eq!(op_script(&t, 500, 11), op_script(&rev, 500, 11));
        // A longer script extends a shorter one.
        assert_eq!(op_script(&t, 100, 11)[..], op_script(&t, 500, 11)[..100]);
    }

    #[test]
    fn op_script_feedback_share_is_about_a_third() {
        let ops = op_script(&truth(), 3000, 5);
        let share = ops.iter().filter(|o| o.explore_feedback).count() as f64 / 3000.0;
        assert!((share - EXPLORE_FEEDBACK_SHARE).abs() < 0.05, "{share}");
    }

    #[test]
    fn generated_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("alexbench-gen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        generate_into(&dir, 3, 40).unwrap();
        let a = Inputs::read(&dir).unwrap();
        assert_eq!(a.ops.len(), 40);
        assert!(!a.initial.is_empty());
        assert!(a.truth.len() > a.initial.len());
        // Same seed, same bytes.
        let again = dir.join("again");
        generate_into(&again, 3, 40).unwrap();
        for f in ["left.nt", "right.nt", "truth.tsv", "initial.tsv", "ops.tsv"] {
            assert_eq!(
                fs::read(dir.join(f)).unwrap(),
                fs::read(again.join(f)).unwrap()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn f1_matches_hand_computation() {
        let truth: HashSet<IriPair> = truth().into_iter().take(4).collect();
        let mut links: HashSet<IriPair> = truth.iter().take(2).cloned().collect();
        links.insert(("x".into(), "y".into()));
        // p = 2/3, r = 1/2 → f1 = 4/7.
        assert!((f1(&links, &truth) - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(f1(&HashSet::new(), &truth), 0.0);
    }
}
