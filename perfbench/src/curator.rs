//! The library calls behind each curation request, made in process.
//!
//! [`Curator`] makes the same public calls, in the same order, as the
//! `alex-serve` handlers for `POST /sessions`, `POST …/query`,
//! `POST …/feedback` and `GET …/links`, each inside a benchmark span. The
//! traced run replays the HTTP op script through it to split every round
//! trip into layer time and serve self time; the untraced run replays it
//! to check that the server's answers, provenance and links are exact.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use alex_core::store::WalRecord;
use alex_core::{
    AlexConfig, AlexDriver, DurabilityConfig, DurableSession, LiveSession, PartitionEpisodeStats,
};
use alex_query::FederatedEngine;
use alex_rdf::{ntriples, Interner, IriId, Link, Store, Term};
use serde_json::Value;

use crate::inputs::IriPair;
use crate::spans::Recorder;

/// Engine seed and partition count every workload pins, so the curated
/// output never depends on the machine's core count.
pub const PARTITIONS: usize = 8;
pub const ENGINE_SEED: u64 = 7;
/// Feedback items per episode, at most (the paper's specific-domain 10).
pub const MAX_FEEDBACK_ITEMS: usize = 10;

/// The describe query the curator asks about `entity`; it crosses the
/// entity's sameAs links into the other dataset.
pub fn describe_query(entity: &str) -> String {
    format!("SELECT ?p ?v WHERE {{ <{entity}> ?p ?v }}")
}

/// The session configuration, pinned; `durability` as the server gets it.
pub fn session_config(durability: DurabilityConfig) -> AlexConfig {
    AlexConfig {
        partitions: PARTITIONS,
        seed: ENGINE_SEED,
        durability,
        ..AlexConfig::default()
    }
}

/// An answer as the server renders it: bound terms (`kind:value` or
/// `null`) and the sameAs links it depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub row: Vec<String>,
    pub links: Vec<IriPair>,
}

/// Parses the `answers` array of a query response.
pub fn answers_from_json(body: &Value) -> Result<Vec<Answer>, String> {
    let items = body
        .get("answers")
        .and_then(Value::as_array)
        .ok_or("query response has no answers array")?;
    items
        .iter()
        .map(|a| {
            let row = a
                .get("row")
                .and_then(Value::as_array)
                .ok_or("answer has no row")?
                .iter()
                .map(|t| match t {
                    Value::Null => Ok("null".to_string()),
                    _ => match (
                        t.get("kind").and_then(Value::as_str),
                        t.get("value").and_then(Value::as_str),
                    ) {
                        (Some(k), Some(v)) => Ok(format!("{k}:{v}")),
                        _ => Err("bad term".to_string()),
                    },
                })
                .collect::<Result<Vec<_>, _>>()?;
            let links = pairs_from_json(a.get("links"))?;
            Ok(Answer { row, links })
        })
        .collect()
}

/// Parses an array of `[left, right]` IRI pairs.
pub fn pairs_from_json(v: Option<&Value>) -> Result<Vec<IriPair>, String> {
    v.and_then(Value::as_array)
        .ok_or("expected an array of links")?
        .iter()
        .map(|p| match p.as_array() {
            Some([l, r]) => match (l.as_str(), r.as_str()) {
                (Some(l), Some(r)) => Ok((l.to_string(), r.to_string())),
                _ => Err("link sides must be strings".to_string()),
            },
            _ => Err("link must be a pair".to_string()),
        })
        .collect()
}

/// The curator's judgement: the first distinct provenance links of the
/// answers, at most [`MAX_FEEDBACK_ITEMS`], approved iff in the truth.
pub fn judge(answers: &[Answer], truth: &HashSet<IriPair>) -> Vec<(IriPair, bool)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for link in answers.iter().flat_map(|a| &a.links) {
        if out.len() == MAX_FEEDBACK_ITEMS {
            break;
        }
        if seen.insert(link) {
            out.push((link.clone(), truth.contains(link)));
        }
    }
    out
}

/// The JSON body of a feedback request.
pub fn feedback_body(items: &[(IriPair, bool)]) -> String {
    let items: Vec<String> = items
        .iter()
        .map(|((l, r), approve)| {
            format!(
                r#"{{"left": {}, "right": {}, "approve": {approve}}}"#,
                crate::http::json_str(l),
                crate::http::json_str(r)
            )
        })
        .collect();
    format!(r#"{{"items": [{}]}}"#, items.join(", "))
}

/// WAL counters the replay's appends add up to, like serve's `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalTotals {
    pub appends: u64,
    pub fsyncs: u64,
    pub bytes: u64,
}

/// A live session driven through the library.
pub struct Curator<'r> {
    rec: &'r Recorder,
    pub session: LiveSession,
    durable: Option<DurableSession>,
    /// Episode counters summed over every feedback request.
    pub stats: PartitionEpisodeStats,
    pub wal: WalTotals,
}

/// Reads one dataset the way `POST /sessions` does for a file path.
pub fn load_store(path: &Path, interner: &Arc<Interner>) -> Result<Store, String> {
    let mut store = Store::new(Arc::clone(interner));
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ntriples::read_str(&text, &mut store).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(store)
}

/// Interns IRI pairs as links between `left` and `right`.
pub fn to_links(pairs: &[IriPair], left: &Store, right: &Store) -> Vec<Link> {
    pairs
        .iter()
        .map(|(l, r)| Link::new(left.intern_iri(l), right.intern_iri(r)))
        .collect()
}

impl<'r> Curator<'r> {
    /// Builds the session as `POST /sessions` does: load both sides,
    /// build the exploration space, and with a WAL lay down the on-disk
    /// state and the initial checkpoint under `state_dir`.
    pub fn create(
        rec: &'r Recorder,
        left: &Path,
        right: &Path,
        initial: &[IriPair],
        durability: DurabilityConfig,
        state_dir: Option<&Path>,
    ) -> Result<Self, String> {
        let interner = Interner::new_shared();
        let left = rec.span("rdf.load", || load_store(left, &interner))?;
        let right = rec.span("rdf.load", || load_store(right, &interner))?;
        let links = to_links(initial, &left, &right);
        let cfg = session_config(durability.clone());
        let driver = rec.span("core.space.build", || {
            AlexDriver::new(&left, &right, &links, cfg)
        })?;
        let session = LiveSession::new(left, right, driver);
        let durable = match (durability.wal, state_dir) {
            (false, _) => None,
            (true, None) => return Err("a WAL needs a state directory".into()),
            (true, Some(dir)) => {
                let opts = durability.to_options()?;
                let mut d = rec.span("store.create", || {
                    DurableSession::create(
                        dir,
                        "s1",
                        &session,
                        opts,
                        durability.compact_after_records,
                    )
                })?;
                rec.span("core.durability.checkpoint", || {
                    d.checkpoint(&mut session.snapshot())
                })
                .map_err(|e| format!("initial checkpoint: {e}"))?;
                Some(d)
            }
        };
        Ok(Self {
            rec,
            session,
            durable,
            stats: PartitionEpisodeStats::default(),
            wal: WalTotals::default(),
        })
    }

    /// Wraps a session built elsewhere (no WAL).
    pub fn from_session(rec: &'r Recorder, session: LiveSession) -> Self {
        Self {
            rec,
            session,
            durable: None,
            stats: PartitionEpisodeStats::default(),
            wal: WalTotals::default(),
        }
    }

    /// `POST /sessions/{id}/query`: fresh engine over the current
    /// candidate links, parse, execute. Returns the answers and the
    /// source probes the execution made.
    pub fn query(&self, text: &str) -> Result<(Vec<Answer>, u64), String> {
        let rec = self.rec;
        let s = &self.session;
        let fed = rec.span("query.engine_build", || {
            let mut fed = FederatedEngine::with_config(
                vec![
                    ("left".to_string(), &s.left),
                    ("right".to_string(), &s.right),
                ],
                s.driver.config().federation,
            );
            fed.add_links(rec.span("core.candidate_links", || s.driver.candidate_links()));
            fed
        });
        let query = rec
            .span("query.parse", || alex_query::parse(text))
            .map_err(|e| format!("query error: {e}"))?;
        let report = rec.span("query.execute", || fed.execute_report(&query));
        if report.degraded {
            return Err("in-memory federation reported a degraded answer".into());
        }
        let interner = s.left.interner();
        let term = |t: &Option<Term>| match t {
            Some(Term::Iri(id)) => format!("iri:{}", interner.resolve(id.0)),
            Some(Term::Literal(l)) => format!("literal:{}", l.lexical(interner)),
            None => "null".to_string(),
        };
        let answers = report
            .answers
            .iter()
            .map(|a| Answer {
                row: a.row.iter().map(term).collect(),
                links: a.links.iter().map(|l| self.pair(*l)).collect(),
            })
            .collect();
        Ok((answers, report.sources.iter().map(|s| s.probes).sum()))
    }

    fn pair(&self, l: Link) -> IriPair {
        (
            self.session.left.iri_str(l.left).to_string(),
            self.session.right.iri_str(l.right).to_string(),
        )
    }

    fn log(&mut self, records: &[WalRecord]) -> Result<(), String> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let out = self
            .rec
            .span("store.wal_append", || d.log(records))
            .map_err(|e| format!("write-ahead log append failed: {e}"))?;
        self.wal.appends += records.len() as u64;
        self.wal.bytes += out.bytes;
        self.wal.fsyncs += u64::from(out.synced);
        Ok(())
    }

    /// `POST /sessions/{id}/feedback`: log the batch, apply it as one
    /// episode, log what changed, compact when due. Returns the candidate
    /// count after the episode.
    pub fn feedback(&mut self, items: &[(IriPair, bool)]) -> Result<usize, String> {
        let rec = self.rec;
        let interner = self.session.left.interner().clone();
        let mut batch = Vec::with_capacity(items.len());
        for ((l, r), approve) in items {
            let (Some(lid), Some(rid)) = (interner.get(l), interner.get(r)) else {
                return Err(format!("unknown IRI {l} / {r}"));
            };
            batch.push((Link::new(IriId(lid), IriId(rid)), *approve));
        }
        let records: Vec<WalRecord> = items
            .iter()
            .map(|((l, r), approve)| WalRecord::Feedback {
                left: l.clone(),
                right: r.clone(),
                positive: *approve,
            })
            .collect();
        self.log(&records)?;

        let s = &mut self.session;
        let before = rec.span("core.candidate_links", || s.driver.candidate_links());
        let stats = rec.span("core.feedback", || {
            for &(link, approve) in &batch {
                s.driver.process_feedback(link, approve);
            }
            s.driver.end_episode()
        });
        s.episodes += 1;
        s.feedback_items += batch.len() as u64;
        let after = rec.span("core.candidate_links", || s.driver.candidate_links());
        self.stats.merge(&stats);

        if self.durable.is_some() {
            let mut records: Vec<WalRecord> = Vec::new();
            for link in after.difference(&before) {
                let (left, right) = self.pair(*link);
                records.push(WalRecord::LinkAdded { left, right });
            }
            for link in before.difference(&after) {
                let (left, right) = self.pair(*link);
                records.push(WalRecord::LinkRemoved {
                    left,
                    right,
                    reason: "episode".to_string(),
                });
            }
            records.push(WalRecord::EpisodeEnd {
                episode: self.session.episodes,
                feedback_items: self.session.feedback_items,
            });
            for (partition, engine) in self.session.driver.engines().iter().enumerate() {
                records.push(WalRecord::PolicyDelta {
                    partition: partition as u64,
                    rng: engine.rng_state(),
                    q_entries: engine.q_table().len() as u64,
                });
            }
            self.log(&records)?;
            let d = self.durable.as_mut().expect("checked above");
            if d.should_compact() {
                let s = &self.session;
                rec.span("core.durability.checkpoint", || {
                    d.checkpoint(&mut rec.span("core.session.snapshot", || s.snapshot()))
                })
                .map_err(|e| format!("compaction failed: {e}"))?;
            }
        }
        // The handler refreshes its session gauges from a third candidate
        // collection.
        let s = &self.session;
        let n = rec.span("core.candidate_links", || s.driver.candidate_links().len());
        Ok(n)
    }

    /// `GET /sessions/{id}/links`: the sorted candidate set.
    pub fn links(&self) -> Vec<IriPair> {
        let s = &self.session;
        self.rec
            .span("core.session.snapshot", || s.snapshot())
            .candidates
    }
}
