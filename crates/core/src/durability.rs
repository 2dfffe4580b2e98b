//! Durable sessions: the write-ahead log glued to the curation driver.
//!
//! The `alex-store` crate moves bytes (frames, segments, snapshots); this
//! module gives those bytes meaning. A [`DurableSession`] owns one
//! session's on-disk state:
//!
//! ```text
//! <state_dir>/session-<id>/
//!     left.alexdb       binary snapshot of the left dataset (write-once)
//!     right.alexdb      binary snapshot of the right dataset (write-once)
//!     checkpoint.json   v3 SessionSnapshot + the WAL sequence it covers
//!     wal/seg-*.wal     records appended since that checkpoint
//! ```
//!
//! Every served session ends up in this layout: a session whose
//! `config.durability.wal` is on gets its directory at creation and logs
//! every mutation; any other session gets its directory when it is drained
//! ([`LiveSession::persist`]). [`recover_state_dir`] boots both kinds.
//!
//! **The recovery invariant.** A mutation is acknowledged only after its
//! WAL record is on disk (per the session's fsync policy). Recovery
//! restores the checkpoint, then replays WAL records `> applied_wal_seq`
//! through [`LiveSession::replay`], the *same deterministic driver steps*
//! [`LiveSession::feedback`] took live.
//! Because replay stops at the first torn or out-of-sequence frame, the
//! recovered state is always the state the session had after some prefix
//! of its acknowledged mutations — never a corrupted or reordered one.
//!
//! **Compaction.** When enough records accumulate, the live state is
//! serialized into a fresh `checkpoint.json` (written atomically:
//! `*.tmp` + rename), the WAL's dead segments are deleted, and sequence
//! numbers keep counting — so `applied_wal_seq` pairs any checkpoint with
//! the exact WAL suffix it needs.
//!
//! Feedback records are the authoritative replay input; [`WalRecord::LinkAdded`] /
//! [`WalRecord::LinkRemoved`] are an audit trail (implied by determinism), and
//! [`WalRecord::PolicyDelta`] is an integrity cross-check: after replaying an
//! episode, the engine's RNG stream must sit exactly where the live
//! session's did. A mismatch is reported (and diagnosed via
//! [`trace::diag`]) but does not abort recovery.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use alex_rdf::{Interner, Link};
use alex_store::{read_store_file, write_store_file, AppendOutcome, Wal, WalOptions, WalRecord};
use alex_trace::{self as trace, Payload};

use crate::engine::PartitionEpisodeStats;
use crate::session::{link_strings, LiveSession, SessionSnapshot};

/// Checks a session id is safe to embed in a filesystem path. Ids come
/// from HTTP clients, so this is a security boundary: anything that could
/// traverse out of the state directory (separators, `..`, empty or
/// non-portable characters) is rejected.
pub fn validate_session_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("session id must not be empty".into());
    }
    if id.len() > 64 {
        return Err(format!("session id too long ({} > 64 chars)", id.len()));
    }
    if id == "." || id == ".." {
        return Err(format!("session id {id:?} is a path component"));
    }
    if let Some(bad) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(format!(
            "session id {id:?} contains forbidden character {bad:?}"
        ));
    }
    Ok(())
}

/// The directory holding one session's durable state.
pub fn session_dir(root: &Path, id: &str) -> PathBuf {
    root.join(format!("session-{id}"))
}

fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// Writes `bytes` to `path` atomically: a `*.tmp` sibling is written,
/// fsynced, and renamed over the target, so a crash leaves either the old
/// file or the new one — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// One session's durable storage: dataset snapshots, checkpoint, WAL.
pub struct DurableSession {
    id: String,
    dir: PathBuf,
    wal: Wal,
    records_since_checkpoint: u64,
    compact_after: u64,
}

impl DurableSession {
    /// Creates the on-disk layout for a new session: the directory, the
    /// two dataset snapshots, and an empty WAL. The caller must follow up
    /// with [`DurableSession::checkpoint`] before acknowledging the
    /// session to a client — a directory without a checkpoint is treated
    /// as an aborted creation by recovery.
    pub fn create(
        root: &Path,
        id: &str,
        session: &LiveSession,
        opts: WalOptions,
        compact_after: u64,
    ) -> Result<Self, String> {
        validate_session_id(id)?;
        let dir = session_dir(root, id);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write_store_file(&dir.join("left.alexdb"), &session.left)
            .map_err(|e| format!("writing left dataset snapshot: {e}"))?;
        write_store_file(&dir.join("right.alexdb"), &session.right)
            .map_err(|e| format!("writing right dataset snapshot: {e}"))?;
        let (wal, _, _) = Wal::open(&wal_dir(&dir), opts)
            .map_err(|e| format!("opening WAL for session {id}: {e}"))?;
        Ok(Self {
            id: id.to_string(),
            dir,
            wal,
            records_since_checkpoint: 0,
            compact_after,
        })
    }

    /// The session id this storage belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The session's on-disk directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends a batch of records (group commit: one fsync decision for
    /// the whole batch) and emits the matching trace events. On `Ok` the
    /// records are logged; only then may the mutation be acknowledged.
    pub fn log(&mut self, records: &[WalRecord]) -> std::io::Result<AppendOutcome> {
        let out = self.wal.append_batch(records)?;
        self.records_since_checkpoint += records.len() as u64;
        trace::emit(|| Payload::WalAppend {
            session: self.id.clone(),
            kind: records[0].kind_str().to_string(),
            seq: out.last_seq,
            bytes: out.bytes,
        });
        if let Some(segment) = out.rotated_to {
            trace::emit(|| Payload::WalRotate {
                session: self.id.clone(),
                segment,
            });
        }
        Ok(out)
    }

    /// Whether enough records accumulated since the last checkpoint that
    /// the caller should fold them into a fresh one.
    pub fn should_compact(&self) -> bool {
        self.compact_after > 0 && self.records_since_checkpoint >= self.compact_after
    }

    /// Durably writes `snapshot` as the session's checkpoint, stamps it
    /// with the WAL high-water mark, then deletes the WAL segments it
    /// covers. Crash-ordering: the checkpoint reaches disk (atomic
    /// rename) *before* any log data is destroyed, so every point in
    /// time has a complete (checkpoint, WAL-suffix) pair on disk.
    pub fn checkpoint(&mut self, snapshot: &mut SessionSnapshot) -> std::io::Result<()> {
        snapshot.applied_wal_seq = self.wal.next_seq() - 1;
        write_atomic(
            &self.dir.join("checkpoint.json"),
            snapshot.to_json().as_bytes(),
        )?;
        let removed = self.wal.truncate_after_checkpoint()?;
        self.records_since_checkpoint = 0;
        trace::emit(|| Payload::WalCompact {
            session: self.id.clone(),
            up_to_seq: snapshot.applied_wal_seq,
            segments_removed: removed,
        });
        Ok(())
    }
}

/// WAL traffic one session operation caused, for process-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalTally {
    /// Records appended.
    pub records: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// Append batches that fsynced.
    pub fsyncs: u64,
}

/// What one feedback episode did, for the caller's response.
#[derive(Clone, Debug)]
pub struct FeedbackOutcome {
    /// The episode's exploration counters, summed over partitions.
    pub stats: PartitionEpisodeStats,
    /// Candidate links before the batch was applied.
    pub candidates_before: usize,
    /// The candidate set after the episode.
    pub candidates: HashSet<Link>,
    /// Episodes the session has completed, this one included.
    pub episode: u64,
    /// What the episode appended to the log.
    pub wal: WalTally,
}

/// The session write protocol. Every mutation goes through these methods,
/// so a served session and WAL recovery apply the same steps in the same
/// order. A session *logs* when it has a directory
/// and its `config.durability.wal` is on; it then appends every mutation
/// to its WAL before applying it (log-before-ack).
impl LiveSession {
    /// Mutable access to the on-disk storage, for callers that log
    /// records of their own (the crash harness does).
    pub fn durable_mut(&mut self) -> Option<&mut DurableSession> {
        self.durable.as_mut()
    }

    /// Whether mutations are logged before they are applied.
    pub fn logs(&self) -> bool {
        self.durable.is_some() && self.driver.config().durability.wal
    }

    fn log(&mut self, records: &[WalRecord], tally: &mut WalTally) -> std::io::Result<()> {
        if let Some(durable) = self.durable.as_mut() {
            let out = durable.log(records)?;
            tally.records += records.len() as u64;
            tally.bytes += out.bytes;
            tally.fsyncs += u64::from(out.synced);
        }
        Ok(())
    }

    /// Runs one feedback episode over `batch`. A logging session makes
    /// two group commits: the Feedback records before anything is
    /// applied, then the episode's audit trail (LinkAdded/LinkRemoved),
    /// its EpisodeEnd marker and one PolicyDelta cross-check per
    /// partition; it then compacts when enough records accumulated. An
    /// error means the batch must not be acknowledged.
    pub fn feedback(&mut self, batch: &[(Link, bool)]) -> std::io::Result<FeedbackOutcome> {
        let logs = self.logs();
        let mut wal = WalTally::default();
        if logs {
            let records: Vec<WalRecord> = batch
                .iter()
                .map(|&(link, positive)| {
                    let (left, right) = link_strings(link, &self.left, &self.right);
                    WalRecord::Feedback {
                        left,
                        right,
                        positive,
                    }
                })
                .collect();
            self.log(&records, &mut wal)?;
        }

        let before = self.driver.candidate_links();
        for &(link, positive) in batch {
            self.driver.process_feedback(link, positive);
        }
        let stats = self.driver.end_episode();
        self.episodes += 1;
        self.feedback_items += batch.len() as u64;
        let after = self.driver.candidate_links();

        if logs {
            let mut records: Vec<WalRecord> = Vec::new();
            for &link in after.difference(&before) {
                let (left, right) = link_strings(link, &self.left, &self.right);
                records.push(WalRecord::LinkAdded { left, right });
            }
            for &link in before.difference(&after) {
                let (left, right) = link_strings(link, &self.left, &self.right);
                records.push(WalRecord::LinkRemoved {
                    left,
                    right,
                    reason: "episode".to_string(),
                });
            }
            records.push(WalRecord::EpisodeEnd {
                episode: self.episodes,
                feedback_items: self.feedback_items,
            });
            for (partition, engine) in self.driver.engines().iter().enumerate() {
                records.push(WalRecord::PolicyDelta {
                    partition: partition as u64,
                    rng: engine.rng_state(),
                    q_entries: engine.q_table().len() as u64,
                });
            }
            self.log(&records, &mut wal)?;
            if self
                .durable
                .as_ref()
                .is_some_and(DurableSession::should_compact)
            {
                // Not fatal: the WAL still holds everything.
                if let Err(e) = self.checkpoint() {
                    trace::diag("error", &format!("compaction failed: {e}"));
                }
            }
        }
        Ok(FeedbackOutcome {
            stats,
            candidates_before: before.len(),
            candidates: after,
            episode: self.episodes,
            wal,
        })
    }

    /// Records the outcome of one federated query: `skipped_sources > 0`
    /// means the answer set may be partial. A logging session logs the
    /// tally before counting it.
    pub fn record_query_outcome(&mut self, skipped_sources: usize) -> std::io::Result<WalTally> {
        let mut wal = WalTally::default();
        if skipped_sources > 0 {
            if self.logs() {
                let record = WalRecord::Degraded {
                    source_skips: skipped_sources as u64,
                };
                self.log(&[record], &mut wal)?;
            }
            self.degraded_queries += 1;
            self.source_skips += skipped_sources as u64;
        }
        Ok(wal)
    }

    /// Replays one logged record through the same deterministic steps the
    /// live methods take. `Err` describes where replay and log disagree:
    /// episode counters (the log's values are adopted) or a failed
    /// [`WalRecord::PolicyDelta`] cross-check (the replayed RNG stream
    /// diverged from the logged one).
    pub fn replay(&mut self, record: &WalRecord) -> Result<(), String> {
        match record {
            WalRecord::Feedback {
                left,
                right,
                positive,
            } => {
                let link = Link::new(self.left.intern_iri(left), self.right.intern_iri(right));
                self.driver.process_feedback(link, *positive);
                self.feedback_items += 1;
            }
            WalRecord::EpisodeEnd {
                episode,
                feedback_items,
            } => {
                self.driver.end_episode();
                self.episodes += 1;
                if self.episodes != *episode || self.feedback_items != *feedback_items {
                    let why = format!(
                        "episode counters diverged on replay (log says episode {episode} \
                         after {feedback_items} items, replay reached episode {} after {})",
                        self.episodes, self.feedback_items
                    );
                    self.episodes = *episode;
                    self.feedback_items = *feedback_items;
                    return Err(why);
                }
            }
            WalRecord::Degraded { source_skips } => {
                self.degraded_queries += 1;
                self.source_skips += source_skips;
            }
            // Audit records: the driver re-derives link additions and
            // removals deterministically from the feedback stream.
            WalRecord::LinkAdded { .. } | WalRecord::LinkRemoved { .. } => {}
            WalRecord::PolicyDelta { partition, rng, .. } => {
                let matches = usize::try_from(*partition)
                    .ok()
                    .and_then(|p| self.driver.engines().get(p))
                    .is_some_and(|e| e.rng_state() == *rng);
                if !matches {
                    return Err(format!(
                        "policy cross-check failed for partition {partition} — \
                         replayed RNG stream diverged from the logged one"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checkpoints the session into `<root>/session-<id>/`. A session
    /// without a directory gets one first ([`DurableSession::create`]:
    /// dataset snapshots and an empty WAL, with the WAL settings of its
    /// own `config.durability`). Creating a logging session and draining
    /// any session both end here. Returns the checkpoint's path.
    pub fn persist(&mut self, root: &Path, id: &str) -> Result<PathBuf, String> {
        if self.durable.is_none() {
            let config = &self.driver.config().durability;
            let opts = config.to_options()?;
            let created =
                DurableSession::create(root, id, self, opts, config.compact_after_records)?;
            self.durable = Some(created);
        }
        self.checkpoint()
    }

    /// Folds the session's state into a fresh checkpoint in its directory.
    fn checkpoint(&mut self) -> Result<PathBuf, String> {
        let mut snap = self.snapshot();
        let durable = self
            .durable
            .as_mut()
            .ok_or("the session has no directory")?;
        durable
            .checkpoint(&mut snap)
            .map_err(|e| format!("checkpointing session {}: {e}", durable.id()))?;
        Ok(durable.dir().join("checkpoint.json"))
    }
}

/// What recovering one session found, for reports and `/metrics`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecoveryReport {
    /// The session id.
    pub id: String,
    /// The WAL sequence the checkpoint covered.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// WAL records skipped because the checkpoint already covered them
    /// (a crash between checkpoint write and WAL truncation).
    pub skipped_records: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Whole segments dropped after mid-log corruption.
    pub dropped_segments: u64,
    /// Why WAL scanning stopped early, if it did.
    pub damage: Option<String>,
    /// Whether a [`WalRecord::PolicyDelta`] cross-check failed (the
    /// replayed RNG stream diverged from the logged one).
    pub policy_mismatch: bool,
}

/// One successfully recovered session, ready to serve requests.
pub struct RecoveredSession {
    /// The rebuilt live state, holding its reopened directory and
    /// positioned to keep logging.
    pub session: LiveSession,
    /// What recovery found; `report.id` is the session id.
    pub report: SessionRecoveryReport,
}

/// The result of scanning a whole state directory.
pub struct RecoveryOutcome {
    /// Sessions rebuilt and ready.
    pub sessions: Vec<RecoveredSession>,
    /// Sessions that could not be rebuilt, as `(id, reason)` — aborted
    /// creations, unreadable snapshots, and the like. These are reported,
    /// not fatal: one damaged session must not keep the server down.
    pub failures: Vec<(String, String)>,
}

/// Scans `root` for `session-<id>/` directories and recovers each one:
/// dataset snapshots are decoded into a fresh shared interner, the
/// checkpoint restores the driver and its learned policy, and the WAL
/// tail replays through [`LiveSession::replay`]. Torn WAL tails are
/// truncated in place (the logs are reopened for writing, with the WAL
/// settings of each session's own checkpointed `config.durability`).
pub fn recover_state_dir(root: &Path) -> std::io::Result<RecoveryOutcome> {
    let mut outcome = RecoveryOutcome {
        sessions: Vec::new(),
        failures: Vec::new(),
    };
    if !root.exists() {
        return Ok(outcome);
    }
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name.strip_prefix("session-") else {
            continue;
        };
        if validate_session_id(id).is_ok() {
            ids.push(id.to_string());
        }
    }
    ids.sort();
    for id in ids {
        match recover_session(root, &id) {
            Ok(recovered) => outcome.sessions.push(recovered),
            Err(why) => {
                trace::diag(
                    "warn",
                    &format!("session {id} could not be recovered: {why}"),
                );
                outcome.failures.push((id, why));
            }
        }
    }
    Ok(outcome)
}

/// Rebuilds one session from its directory. See [`recover_state_dir`].
pub fn recover_session(root: &Path, id: &str) -> Result<RecoveredSession, String> {
    validate_session_id(id)?;
    let dir = session_dir(root, id);
    let checkpoint_path = dir.join("checkpoint.json");
    if !checkpoint_path.exists() {
        return Err("no checkpoint (session creation never completed)".into());
    }

    // Left then right decode into one fresh interner, reproducing the
    // id-sharing the live session had (shared literals compare equal
    // across the pair).
    let interner = Interner::new_shared();
    let left = read_store_file(&dir.join("left.alexdb"), &interner)
        .map_err(|e| format!("left dataset snapshot: {e}"))?;
    let right = read_store_file(&dir.join("right.alexdb"), &interner)
        .map_err(|e| format!("right dataset snapshot: {e}"))?;

    let checkpoint_text = std::fs::read_to_string(&checkpoint_path)
        .map_err(|e| format!("reading checkpoint: {e}"))?;
    let snapshot =
        SessionSnapshot::from_json(&checkpoint_text).map_err(|e| format!("checkpoint: {e}"))?;
    let durability = &snapshot.config.durability;
    let opts = durability
        .to_options()
        .map_err(|e| format!("checkpoint durability config: {e}"))?;
    let driver = snapshot
        .restore(&left, &right)
        .map_err(|e| format!("restoring driver: {e}"))?;
    let mut session = LiveSession::new(left, right, driver);
    session.restore_counters(&snapshot);

    // Reopen the WAL for writing: this truncates any torn tail and hands
    // back everything before it.
    let (wal, records, wal_report) =
        Wal::open(&wal_dir(&dir), opts).map_err(|e| format!("opening WAL: {e}"))?;

    let mut report = SessionRecoveryReport {
        id: id.to_string(),
        checkpoint_seq: snapshot.applied_wal_seq,
        replayed_records: 0,
        skipped_records: 0,
        truncated_bytes: wal_report.truncated_bytes,
        dropped_segments: wal_report.dropped_segments,
        damage: wal_report.damage.clone(),
        policy_mismatch: false,
    };
    if let Some(damage) = &wal_report.damage {
        trace::diag(
            "warn",
            &format!(
                "session {id}: WAL damage, recovering the clean prefix ({damage}; \
                 {} bytes truncated, {} segments dropped)",
                wal_report.truncated_bytes, wal_report.dropped_segments
            ),
        );
    }

    for sequenced in records {
        if sequenced.seq <= snapshot.applied_wal_seq {
            report.skipped_records += 1;
            continue;
        }
        if let Err(why) = session.replay(&sequenced.record) {
            trace::diag("warn", &format!("session {id}: {why}"));
            if matches!(sequenced.record, WalRecord::PolicyDelta { .. }) {
                report.policy_mismatch = true;
            }
        }
        report.replayed_records += 1;
    }

    trace::emit(|| Payload::WalReplay {
        session: id.to_string(),
        records: report.replayed_records,
        truncated_bytes: report.truncated_bytes,
    });

    session.durable = Some(DurableSession {
        id: id.to_string(),
        dir,
        wal,
        // Everything replayed is not yet in a checkpoint.
        records_since_checkpoint: report.replayed_records,
        compact_after: durability.compact_after_records,
    });
    Ok(RecoveredSession { session, report })
}

/// Shared scaffolding for the durability unit tests below. The
/// crash-injection harness (`tests/crash_recovery.rs`) duplicates this
/// world: integration tests build without `cfg(test)`.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::AlexConfig;
    use crate::driver::AlexDriver;
    use alex_rdf::{Literal, Store};
    use std::collections::HashSet;
    use std::sync::Arc;

    pub fn world() -> (Store, Store, HashSet<Link>, Arc<Interner>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let name_r = right.intern_iri("r/label");
        let mut truth = HashSet::new();
        for i in 0..12 {
            let l = left.intern_iri(&format!("http://l/e{i}"));
            let r = right.intern_iri(&format!("http://r/e{i}"));
            let nm = format!("subject alpha {i}");
            left.insert_literal(l, name_l, Literal::str(&interner, &nm));
            right.insert_literal(r, name_r, Literal::str(&interner, &nm));
            truth.insert(Link::new(l, r));
        }
        (left, right, truth, interner)
    }

    pub fn small_cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 5,
            partitions: 2,
            max_episodes: 5,
            epsilon: 0.3,
            ..Default::default()
        }
    }

    pub fn live_session() -> (LiveSession, Vec<Link>) {
        let (left, right, truth, _) = world();
        let mut links: Vec<Link> = truth.iter().copied().collect();
        links.sort();
        let initial: Vec<Link> = links.iter().take(3).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        (LiveSession::new(left, right, driver), links)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-durability-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn feedback_record(session: &LiveSession, link: Link, positive: bool) -> WalRecord {
        WalRecord::Feedback {
            left: session.left.iri_str(link.left).to_string(),
            right: session.right.iri_str(link.right).to_string(),
            positive,
        }
    }

    #[test]
    fn hostile_session_ids_are_rejected() {
        for bad in [
            "",
            "..",
            ".",
            "../etc",
            "a/b",
            "a\\b",
            "a\0b",
            "x y",
            "sess☃",
            &"x".repeat(65),
        ] {
            assert!(validate_session_id(bad).is_err(), "{bad:?} accepted");
        }
        for good in ["s1", "user-7.main", "A_B-c.d", &"x".repeat(64)] {
            assert!(validate_session_id(good).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn create_log_checkpoint_recover_round_trips() {
        let root = tmp_root("roundtrip");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 0).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();

        // Apply and log an episode of feedback, live.
        let batch: Vec<(Link, bool)> = links.iter().skip(3).take(4).map(|&l| (l, true)).collect();
        let records: Vec<WalRecord> = batch
            .iter()
            .map(|&(l, p)| feedback_record(&session, l, p))
            .collect();
        durable.log(&records).unwrap();
        for &(link, positive) in &batch {
            session.driver.process_feedback(link, positive);
            session.feedback_items += 1;
        }
        session.driver.end_episode();
        session.episodes += 1;
        durable
            .log(&[WalRecord::EpisodeEnd {
                episode: session.episodes,
                feedback_items: session.feedback_items,
            }])
            .unwrap();
        let rng0 = session.driver.engines()[0].rng_state();
        durable
            .log(&[WalRecord::PolicyDelta {
                partition: 0,
                rng: rng0,
                q_entries: session.driver.engines()[0].q_table().len() as u64,
            }])
            .unwrap();
        drop(durable);

        // Recover and compare against the live state, link for link.
        let outcome = recover_state_dir(&root).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.sessions.len(), 1);
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.report.id, "s1");
        assert_eq!(recovered.report.replayed_records, 6);
        assert!(!recovered.report.policy_mismatch);
        assert_eq!(recovered.session.episodes, 1);
        assert_eq!(recovered.session.feedback_items, 4);

        let live_links: std::collections::BTreeSet<(String, String)> = session
            .driver
            .candidate_links()
            .into_iter()
            .map(|l| {
                (
                    session.left.iri_str(l.left).to_string(),
                    session.right.iri_str(l.right).to_string(),
                )
            })
            .collect();
        let rec_links: std::collections::BTreeSet<(String, String)> = recovered
            .session
            .driver
            .candidate_links()
            .into_iter()
            .map(|l| {
                (
                    recovered.session.left.iri_str(l.left).to_string(),
                    recovered.session.right.iri_str(l.right).to_string(),
                )
            })
            .collect();
        assert_eq!(live_links, rec_links);
        // The RNG streams line up: the recovered session will make the
        // same next exploration choice the live one would.
        for (a, b) in session
            .driver
            .engines()
            .iter()
            .zip(recovered.session.driver.engines())
        {
            assert_eq!(a.rng_state(), b.rng_state());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_folds_the_wal_into_the_checkpoint() {
        let root = tmp_root("compact");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 3).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();
        assert!(!durable.should_compact());

        for &link in links.iter().skip(3).take(4) {
            durable
                .log(&[feedback_record(&session, link, true)])
                .unwrap();
            session.driver.process_feedback(link, true);
            session.feedback_items += 1;
        }
        assert!(durable.should_compact(), "4 records ≥ threshold 3");
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();
        assert!(!durable.should_compact());
        drop(durable);

        // After compaction the WAL suffix is empty; the checkpoint alone
        // carries the state.
        let outcome = recover_state_dir(&root).unwrap();
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(recovered.report.checkpoint_seq, 4);
        assert_eq!(recovered.session.feedback_items, 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn aborted_creation_is_a_failure_not_a_crash() {
        let root = tmp_root("aborted");
        let (session, _) = live_session();
        // Create writes the snapshots but the checkpoint never lands.
        let _ =
            DurableSession::create(&root, "halfway", &session, WalOptions::default(), 0).unwrap();
        let outcome = recover_state_dir(&root).unwrap();
        assert!(outcome.sessions.is_empty());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].0, "halfway");
        assert!(outcome.failures[0].1.contains("no checkpoint"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_wal_records_below_the_checkpoint_are_skipped() {
        let root = tmp_root("stale");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 0).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();

        // Log + apply two items, then write the checkpoint *without*
        // truncating the WAL — simulating a crash between the two steps
        // of `checkpoint()`.
        let mut last_seq = 0;
        for &link in links.iter().skip(3).take(2) {
            last_seq = durable
                .log(&[feedback_record(&session, link, true)])
                .unwrap()
                .last_seq;
            session
                .replay(&feedback_record(&session, link, true))
                .unwrap();
        }
        let mut snap = session.snapshot();
        snap.applied_wal_seq = last_seq;
        write_atomic(
            &durable.dir().join("checkpoint.json"),
            snap.to_json().as_bytes(),
        )
        .unwrap();
        drop(durable);

        let outcome = recover_state_dir(&root).unwrap();
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.report.skipped_records, 2, "covered by checkpoint");
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(recovered.session.feedback_items, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
