//! The curator's op script, run against either the HTTP server or the
//! library, with one shared decision procedure so the two runs can be
//! compared op by op.

use std::collections::HashSet;
use std::time::Instant;

use crate::curator::{judge, Answer, Curator};
use crate::inputs::{IriPair, Op};
use crate::spans::Recorder;

/// `GET /links` every this many iterations.
pub const LINKS_EVERY: usize = 20;

/// What a curation backend answers.
pub trait Backend {
    fn query(&mut self, text: &str) -> Result<(Vec<Answer>, u64), String>;
    fn feedback(&mut self, items: &[(IriPair, bool)]) -> Result<(), String>;
    fn links(&mut self) -> Result<Vec<IriPair>, String>;
}

impl Backend for Curator<'_> {
    fn query(&mut self, text: &str) -> Result<(Vec<Answer>, u64), String> {
        Curator::query(self, text)
    }

    fn feedback(&mut self, items: &[(IriPair, bool)]) -> Result<(), String> {
        Curator::feedback(self, items).map(|_| ())
    }

    fn links(&mut self) -> Result<Vec<IriPair>, String> {
        Ok(Curator::links(self))
    }
}

/// One request of the script and what came back.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    Answers(Vec<Answer>),
    Items(Vec<(IriPair, bool)>),
    /// Size, digest and correct links of a link list (the lists
    /// themselves would dominate the benchmark's own memory).
    Links {
        count: usize,
        digest: u64,
        correct: usize,
    },
    Failed(String),
}

/// Order-sensitive digest of a link list.
pub fn digest(links: &[IriPair]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    links.hash(&mut h);
    h.finish()
}

#[derive(Clone, Debug)]
pub struct Done {
    pub kind: &'static str,
    pub op: usize,
    pub ms: f64,
    pub payload: Payload,
}

/// Everything a script run produced.
#[derive(Default)]
pub struct ScriptRun {
    pub done: Vec<Done>,
    pub seconds: f64,
    pub probes: u64,
}

impl ScriptRun {
    pub fn ms(&self, kind: &str) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.kind == kind && !matches!(d.payload, Payload::Failed(_)))
            .map(|d| d.ms)
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.done
            .iter()
            .filter(|d| matches!(d.payload, Payload::Failed(_)))
            .count() as u64
    }

    /// F1 against a truth of `truth` links of every link listing.
    pub fn listing_f1(&self, truth: usize) -> Vec<f64> {
        self.done
            .iter()
            .filter_map(|d| match d.payload {
                Payload::Links { count, correct, .. } if correct > 0 => {
                    Some(2.0 * correct as f64 / (count + truth) as f64)
                }
                Payload::Links { .. } => Some(0.0),
                _ => None,
            })
            .collect()
    }

    pub fn answers(&self) -> u64 {
        self.done
            .iter()
            .map(|d| match &d.payload {
                Payload::Answers(a) => a.len() as u64,
                _ => 0,
            })
            .sum()
    }
}

/// Runs `ops` against `backend`: a describe query per op; with
/// `feedback`, on the op script's flagged iterations, a judgement of the
/// answers' provenance links; every
/// [`LINKS_EVERY`]th iteration, the link list. `flip` inverts the first
/// judgement sent, to prove that the comparison catches a divergence.
///
/// The curator asks about the left entity of the link the op's `pick`
/// selects from the latest listing (the op's own entity before the first
/// listing). Following the listing, the curator meets the wrong links a
/// burst of exploration adds and rejects them; with fixed targets such
/// bursts linger, and the session's size, and with it every request's
/// cost, swung with the seed.
pub fn run_script(
    backend: &mut dyn Backend,
    ops: &[Op],
    feedback: bool,
    truth: &HashSet<IriPair>,
    rec: &Recorder,
    mut flip: bool,
) -> ScriptRun {
    let mut run = ScriptRun::default();
    let start = Instant::now();
    let mut listing: Vec<IriPair> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        rec.set_op(Some(i));
        let entity = match listing.len() {
            0 => &op.entity,
            n => &listing[(op.pick % n as u64) as usize].0,
        };
        let text = crate::curator::describe_query(entity);
        let t = Instant::now();
        let reply = rec.span("op.query", || backend.query(&text));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let answers = match reply {
            Ok((answers, probes)) => {
                run.probes += probes;
                answers
            }
            Err(e) => {
                run.done.push(Done {
                    kind: "query",
                    op: i,
                    ms,
                    payload: Payload::Failed(e),
                });
                continue;
            }
        };
        let mut items = judge(&answers, truth);
        run.done.push(Done {
            kind: "query",
            op: i,
            ms,
            payload: Payload::Answers(answers),
        });
        if feedback && op.explore_feedback && !items.is_empty() {
            if flip {
                items[0].1 = !items[0].1;
                flip = false;
            }
            let t = Instant::now();
            let reply = rec.span("op.feedback", || backend.feedback(&items));
            run.done.push(Done {
                kind: "feedback",
                op: i,
                ms: t.elapsed().as_secs_f64() * 1e3,
                payload: match reply {
                    Ok(()) => Payload::Items(items),
                    Err(e) => Payload::Failed(e),
                },
            });
        }
        if i % LINKS_EVERY == LINKS_EVERY - 1 {
            let t = Instant::now();
            let reply = rec.span("op.links", || backend.links());
            run.done.push(Done {
                kind: "links",
                op: i,
                ms: t.elapsed().as_secs_f64() * 1e3,
                payload: match reply {
                    Ok(l) => {
                        listing = l;
                        Payload::Links {
                            count: listing.len(),
                            digest: digest(&listing),
                            correct: listing.iter().filter(|p| truth.contains(*p)).count(),
                        }
                    }
                    Err(e) => Payload::Failed(e),
                },
            });
        }
    }
    rec.set_op(None);
    run.seconds = start.elapsed().as_secs_f64();
    run
}

/// Compares two runs of one script request by request; returns the
/// first differences found (empty when the runs agree exactly).
pub fn compare(a: &ScriptRun, b: &ScriptRun) -> Vec<String> {
    let mut out = Vec::new();
    if a.done.len() != b.done.len() {
        out.push(format!(
            "request count differs: {} vs {}",
            a.done.len(),
            b.done.len()
        ));
    }
    for (x, y) in a.done.iter().zip(&b.done) {
        if out.len() >= 5 {
            break;
        }
        if (x.kind, x.op) != (y.kind, y.op) {
            out.push(format!(
                "request differs at op {}: {} vs {} at op {}",
                x.op, x.kind, y.kind, y.op
            ));
        } else if x.payload != y.payload {
            out.push(format!("{} at op {} differs", x.kind, x.op));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose answers carry one provenance link per query, the
    /// op's entity linked to itself.
    struct Echo {
        fed: Vec<Vec<(IriPair, bool)>>,
    }

    impl Backend for Echo {
        fn query(&mut self, text: &str) -> Result<(Vec<Answer>, u64), String> {
            let e = text.split(['<', '>']).nth(1).unwrap_or("").to_string();
            Ok((
                vec![Answer {
                    row: vec![format!("iri:{e}")],
                    links: vec![(e.clone(), e)],
                }],
                1,
            ))
        }
        fn feedback(&mut self, items: &[(IriPair, bool)]) -> Result<(), String> {
            self.fed.push(items.to_vec());
            Ok(())
        }
        fn links(&mut self) -> Result<Vec<IriPair>, String> {
            Ok(Vec::new())
        }
    }

    fn ops() -> Vec<Op> {
        (0..40)
            .map(|i| Op {
                entity: format!("http://l/{i}"),
                explore_feedback: i % 3 == 0,
                pick: i,
            })
            .collect()
    }

    #[test]
    fn flagged_iterations_send_feedback() {
        let rec = Recorder::new(false);
        let truth = HashSet::new();
        let mut e = Echo { fed: Vec::new() };
        let run = run_script(&mut e, &ops(), true, &truth, &rec, false);
        assert_eq!(e.fed.len(), 14);
        assert_eq!(run.ms("links").len(), 2);
        let mut e = Echo { fed: Vec::new() };
        run_script(&mut e, &ops(), false, &truth, &rec, false);
        assert!(e.fed.is_empty());
    }

    #[test]
    fn a_flipped_judgement_is_caught() {
        let rec = Recorder::new(false);
        let truth = HashSet::new();
        let a = run_script(
            &mut Echo { fed: Vec::new() },
            &ops(),
            true,
            &truth,
            &rec,
            false,
        );
        let b = run_script(
            &mut Echo { fed: Vec::new() },
            &ops(),
            true,
            &truth,
            &rec,
            false,
        );
        assert!(compare(&a, &b).is_empty());
        let c = run_script(
            &mut Echo { fed: Vec::new() },
            &ops(),
            true,
            &truth,
            &rec,
            true,
        );
        assert_eq!(
            compare(&a, &c),
            vec!["feedback at op 0 differs".to_string()]
        );
    }
}
