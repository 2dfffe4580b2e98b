//! Crash-injection harness: kill the WAL at a random byte offset and
//! prove recovery lands on an exact prefix of the acknowledged history.
//!
//! The harness scripts a deterministic curation session, logging every
//! mutation before applying it through the library's replay step (the
//! same log-before-ack discipline the server uses) and capturing an oracle state after each acknowledged
//! record. It then replays crashes against copies of the session
//! directory: truncating the log mid-frame (a torn write) or flipping a
//! single byte (media corruption). For every injected fault it asserts:
//!
//! 1. recovery never refuses to start;
//! 2. the recovered state equals the oracle state after exactly the
//!    records that survive on disk — a *prefix* of the acknowledged
//!    history, predicted independently from the append byte offsets;
//! 3. re-applying the remaining script to the recovered session produces
//!    the same final state as the uninterrupted run (continued curation
//!    is indistinguishable from never having crashed).
//!
//! Fault offsets come from a splitmix64 stream seeded by
//! `ALEX_TEST_SEED` (decimal or `0x`-hex) so a CI failure is replayable
//! bit for bit.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use alex_core::durability::recover_state_dir;
use alex_core::store::{SyncPolicy, WalOptions, WalRecord};
use alex_core::{AlexConfig, AlexDriver, DurableSession, LiveSession};
use alex_rdf::{Interner, Link, Literal, Store};

/// splitmix64: tiny, seedable, and good enough to pick fault offsets.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn seed_from_env() -> u64 {
    match std::env::var("ALEX_TEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("ALEX_TEST_SEED {s:?} is not a u64"))
        }
        Err(_) => 0xA1EC_5EED_0000_0001,
    }
}

/// Mirrors `durability::testutil::world()` — integration tests compile
/// without `cfg(test)`, so the scaffolding is duplicated here.
fn world() -> (Store, Store, Vec<Link>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let name_l = left.intern_iri("l/name");
    let name_r = right.intern_iri("r/label");
    let mut links = Vec::new();
    for i in 0..12 {
        let l = left.intern_iri(&format!("http://l/e{i}"));
        let r = right.intern_iri(&format!("http://r/e{i}"));
        let nm = format!("subject alpha {i}");
        left.insert_literal(l, name_l, Literal::str(&interner, &nm));
        right.insert_literal(r, name_r, Literal::str(&interner, &nm));
        links.push(Link::new(l, r));
    }
    links.sort();
    (left, right, links)
}

fn live_session() -> (LiveSession, Vec<Link>) {
    let (left, right, links) = world();
    let initial: Vec<Link> = links.iter().take(3).copied().collect();
    let cfg = AlexConfig {
        episode_size: 5,
        partitions: 2,
        max_episodes: 5,
        epsilon: 0.3,
        ..Default::default()
    };
    let driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
    (LiveSession::new(left, right, driver), links)
}

/// Everything recovery must reproduce, in interner-independent form.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OracleState {
    feedback_items: u64,
    episodes: u64,
    candidates: BTreeSet<(String, String)>,
    rng: Vec<[u64; 4]>,
}

fn capture(session: &LiveSession) -> OracleState {
    OracleState {
        feedback_items: session.feedback_items,
        episodes: session.episodes,
        candidates: session
            .driver
            .candidate_links()
            .into_iter()
            .map(|l| {
                (
                    session.left.iri_str(l.left).to_string(),
                    session.right.iri_str(l.right).to_string(),
                )
            })
            .collect(),
        rng: session
            .driver
            .engines()
            .iter()
            .map(|e| e.rng_state())
            .collect(),
    }
}

/// The scripted history: feedback on nine links (every third negative),
/// an episode boundary every three items with the policy cross-check
/// records the server writes.
fn build_script(session: &LiveSession, links: &[Link]) -> Vec<WalRecord> {
    let mut script = Vec::new();
    let mut sim = (0u64, 0u64); // (feedback_items, episodes)
    for (i, &link) in links.iter().skip(3).enumerate() {
        script.push(WalRecord::Feedback {
            left: session.left.iri_str(link.left).to_string(),
            right: session.right.iri_str(link.right).to_string(),
            positive: i % 3 != 2,
        });
        sim.0 += 1;
        if sim.0.is_multiple_of(3) {
            sim.1 += 1;
            script.push(WalRecord::EpisodeEnd {
                episode: sim.1,
                feedback_items: sim.0,
            });
        }
    }
    script
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The session's WAL segments in replay order, with their sizes.
fn wal_segments(session_dir: &Path) -> Vec<(PathBuf, u64)> {
    let wal = session_dir.join("wal");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    segs.into_iter()
        .map(|p| {
            let len = std::fs::metadata(&p).unwrap().len();
            (p, len)
        })
        .collect()
}

enum Fault {
    /// Cut the concatenated log at this global byte offset (torn write).
    Truncate(u64),
    /// XOR one byte at this global offset (media corruption).
    Flip(u64, u8),
}

/// Injects the fault into the copied session directory's WAL.
fn inject(session_dir: &Path, fault: &Fault) {
    let segs = wal_segments(session_dir);
    let (global, flip) = match fault {
        Fault::Truncate(o) => (*o, None),
        Fault::Flip(o, x) => (*o, Some(*x)),
    };
    let mut remaining = global;
    let mut hit = false;
    for (i, (path, len)) in segs.iter().enumerate() {
        if hit {
            // Everything after a truncation point is gone.
            if flip.is_none() {
                std::fs::remove_file(path).unwrap();
            }
            continue;
        }
        if remaining < *len {
            match flip {
                Some(x) => {
                    let mut bytes = std::fs::read(path).unwrap();
                    bytes[remaining as usize] ^= x;
                    std::fs::write(path, bytes).unwrap();
                }
                None => {
                    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
                    f.set_len(remaining).unwrap();
                    let _ = i; // later segments removed above
                }
            }
            hit = true;
        } else {
            remaining -= *len;
        }
    }
    assert!(hit, "fault offset {global} beyond the log");
}

#[test]
fn recovery_is_an_exact_prefix_of_acknowledged_history() {
    let seed = seed_from_env();
    let mut rng = SplitMix64(seed);
    let base = std::env::temp_dir().join(format!("alex-crash-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Tiny segments force rotation, so faults land in every segment of a
    // multi-segment log, not just the last one.
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 160,
    };

    // ---- The uninterrupted run, producing the oracle states. ----
    let full_root = base.join("full");
    let (mut session, links) = live_session();
    let script = build_script(&session, &links);
    let mut durable = DurableSession::create(&full_root, "s1", &session, opts, 0).unwrap();
    let mut snap = session.snapshot();
    durable.checkpoint(&mut snap).unwrap();

    // oracle[n] = state after the first n acked records;
    // acked_end[n-1] = global byte offset of the log after record n.
    let mut oracle = vec![capture(&session)];
    let mut acked_end = Vec::new();
    for record in &script {
        durable.log(std::slice::from_ref(record)).unwrap();
        session.replay(record).unwrap();
        oracle.push(capture(&session));
        let total: u64 = wal_segments(durable.dir()).iter().map(|(_, l)| l).sum();
        acked_end.push(total);
    }
    let session_dir = durable.dir().to_path_buf();
    drop(durable);
    let total_bytes = *acked_end.last().unwrap();
    let final_state = oracle.last().unwrap().clone();
    assert!(
        wal_segments(&session_dir).len() >= 2,
        "script too small to rotate segments"
    );

    // ---- Crash trials. ----
    for trial in 0..16u64 {
        let offset = rng.next() % total_bytes;
        let fault = if trial % 2 == 0 {
            Fault::Truncate(offset)
        } else {
            Fault::Flip(offset, (rng.next() % 255) as u8 + 1)
        };
        let root = base.join(format!("trial-{trial}"));
        copy_dir(&full_root, &root);
        inject(&root.join("session-s1"), &fault);

        // A fault at `offset` destroys the record containing that byte
        // and everything after it; records fully before it survive.
        let expected_n = acked_end.iter().filter(|&&end| end <= offset).count();

        let outcome = recover_state_dir(&root).unwrap();
        assert!(
            outcome.failures.is_empty(),
            "seed {seed:#x} trial {trial}: recovery refused: {:?}",
            outcome.failures
        );
        assert_eq!(outcome.sessions.len(), 1);
        let mut recovered = outcome.sessions.into_iter().next().unwrap();
        assert_eq!(
            recovered.report.replayed_records as usize,
            expected_n,
            "seed {seed:#x} trial {trial} ({} at {offset}): wrong prefix length",
            if trial % 2 == 0 { "truncate" } else { "flip" },
        );
        assert!(!recovered.report.policy_mismatch);
        assert_eq!(
            capture(&recovered.session),
            oracle[expected_n],
            "seed {seed:#x} trial {trial}: recovered state is not the \
             state after {expected_n} acked records"
        );

        // Continued curation: the lost suffix re-applied to the
        // recovered session must land exactly where the uninterrupted
        // run did — and the reopened log must accept new records.
        let session = &mut recovered.session;
        for record in &script[expected_n..] {
            let durable = session.durable_mut().expect("recovered with its directory");
            durable.log(std::slice::from_ref(record)).unwrap();
            session.replay(record).unwrap();
        }
        assert_eq!(
            capture(session),
            final_state,
            "seed {seed:#x} trial {trial}: continued curation diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
