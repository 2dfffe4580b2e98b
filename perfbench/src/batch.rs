//! `batch_curate`: the offline pipeline (paper §3, §7 batch mode).
//!
//! Load both sides from N-Triples, run PARIS, keep its links at 0.95 as
//! the initial links, build the exploration spaces, and curate with the
//! exact oracle until convergence. The curator then inspects the curated
//! links with the op script's queries and listings (no feedback) through
//! an in-process server (the traced run: through the library), so the
//! interactive metrics exist here too, without a WAL.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use alex_core::{AlexConfig, AlexDriver, ExactOracle, FeedbackOracle, LiveSession, RunOutcome};
use alex_paris::{ParisConfig, ParisLinker, ParisOutput};
use alex_rdf::{Interner, Link, Store};
use rand::rngs::StdRng;
use serde_json::{Number, Value};

use crate::curator::{load_store, to_links, Curator, ENGINE_SEED, PARTITIONS};
use crate::inputs::{f1, Inputs, IriPair, Op, PAIR, SCALE};
use crate::report::{num, Report};
use crate::script::{run_script, ScriptRun};
use crate::spans::{Profile, Recorder};
use crate::stats::median;

/// PARIS score at or above which a link starts as a candidate.
pub const PARIS_THRESHOLD: f64 = 0.95;
/// Full pipelines per untraced run; setup and curation report medians.
pub const REPS: usize = 3;
/// Op-script iterations of the inspection.
pub const INSPECT_OPS: usize = 1500;
/// Episodes `curate_s` times. Convergence takes 25 to 49 episodes
/// depending on the seed, which made the whole run's time spread 40%
/// across seeds; the first episodes are the same amount of work.
pub const TIMED_EPISODES: usize = 15;

fn config() -> AlexConfig {
    AlexConfig {
        partitions: PARTITIONS,
        episode_size: PAIR.suggested_episode_size(SCALE),
        seed: ENGINE_SEED,
        ..AlexConfig::default()
    }
}

/// One pass of the pipeline.
struct Pass {
    left: Store,
    right: Store,
    truth: HashSet<Link>,
    paris: ParisOutput,
    initial: usize,
    driver: AlexDriver,
    outcome: RunOutcome,
    setup_s: f64,
    curate_s: f64,
    /// Wall time of the whole `driver.run`.
    run_s: f64,
}

/// The exact oracle, optionally inverting the first judgement it makes
/// (to prove that the repeated-pass comparison catches a divergence).
struct Oracle {
    exact: ExactOracle,
    flip: AtomicBool,
}

impl FeedbackOracle for Oracle {
    fn judge(&self, link: Link, rng: &mut StdRng) -> Option<bool> {
        let verdict = self.exact.judge(link, rng)?;
        Some(verdict ^ self.flip.swap(false, Ordering::Relaxed))
    }
}

fn pass(inputs: &Inputs, rec: &Recorder, flip: bool) -> Result<Pass, String> {
    let t = Instant::now();
    let interner = Interner::new_shared();
    let left = rec.span("rdf.load", || load_store(&inputs.left(), &interner))?;
    let right = rec.span("rdf.load", || load_store(&inputs.right(), &interner))?;
    let linker = ParisLinker::new(ParisConfig::default());
    let paris = rec.span("paris.run", || linker.run(&left, &right));
    let initial = paris.above_threshold(PARIS_THRESHOLD);
    let mut driver = rec.span("core.space.build", || {
        AlexDriver::new(&left, &right, &initial, config())
    })?;
    let setup_s = t.elapsed().as_secs_f64();

    let truth_pairs: Vec<IriPair> = inputs.truth.iter().cloned().collect();
    let truth: HashSet<Link> = to_links(&truth_pairs, &left, &right).into_iter().collect();
    let oracle = Oracle {
        exact: ExactOracle::new(truth.clone()),
        flip: AtomicBool::new(flip),
    };
    let t = Instant::now();
    let outcome = rec.span("core.driver.run", || driver.run(&oracle, &truth));
    let run_s = t.elapsed().as_secs_f64();
    let curate_s = outcome.reports[1..]
        .iter()
        .take(TIMED_EPISODES)
        .map(|r| r.duration_ms)
        .sum::<f64>()
        / 1e3;
    Ok(Pass {
        left,
        right,
        truth,
        initial: initial.len(),
        paris,
        driver,
        outcome,
        setup_s,
        curate_s,
        run_s,
    })
}

/// A fresh session over a pass's curated links, for the traced run's
/// read-only inspection: the curation's blacklist, Q-table and churn grow
/// with the number of episodes (25 to 59 across seeds) and would make
/// every listing's cost depend on it.
fn inspection_session(p: Pass, rec: &Recorder) -> Result<Curator<'_>, String> {
    let Pass {
        left,
        right,
        driver,
        outcome,
        ..
    } = p;
    drop(driver);
    let mut links: Vec<Link> = outcome.final_links.into_iter().collect();
    links.sort_unstable();
    let driver = AlexDriver::new(&left, &right, &links, config())?;
    Ok(Curator::from_session(
        rec,
        LiveSession::new(left, right, driver),
    ))
}

/// Inspection op-script iterations, in [`REPS`] chunks.
fn inspection_ops(inputs: &Inputs) -> Vec<&[Op]> {
    let ops = &inputs.ops[..INSPECT_OPS.min(inputs.ops.len())];
    ops.chunks(ops.len().div_ceil(REPS)).collect()
}

fn pairs(links: &HashSet<Link>, left: &Store, right: &Store) -> HashSet<IriPair> {
    links
        .iter()
        .map(|l| {
            (
                left.iri_str(l.left).to_string(),
                right.iri_str(l.right).to_string(),
            )
        })
        .collect()
}

/// The driver counters a pass reports, summed over episodes.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Counts {
    episodes: usize,
    feedback_items: usize,
    links_added: usize,
    links_removed: usize,
    rollbacks: usize,
    candidates: usize,
}

fn counts(p: &Pass) -> Counts {
    let eps = &p.outcome.reports[1..];
    Counts {
        episodes: eps.len(),
        feedback_items: eps.iter().map(|r| r.feedback_items).sum(),
        links_added: eps.iter().map(|r| r.links_added).sum(),
        links_removed: eps.iter().map(|r| r.links_removed).sum(),
        rollbacks: p.driver.diagnostics().banned_actions,
        candidates: p.outcome.final_links.len(),
    }
}

/// Checks a pass against a recomputation from its own outputs: F1 from
/// the final links, global counters from the per-partition reports, and
/// the final candidate count from the driver.
fn verify(p: &Pass, inputs: &Inputs, report: &mut Report) -> f64 {
    let links = pairs(&p.outcome.final_links, &p.left, &p.right);
    let f = f1(&links, &inputs.truth);
    let lib = p.outcome.final_quality().f1;
    report.check((f - lib).abs() < 1e-12, || {
        format!("final_f1 {lib} != recomputed {f}")
    });
    let c = counts(p);
    let parts = &p.outcome.partition_reports;
    let part_sum = |f: fn(&alex_core::EpisodeReport) -> usize| -> usize {
        parts.iter().flat_map(|r| r[1..].iter()).map(f).sum()
    };
    report.check(part_sum(|r| r.feedback_items) == c.feedback_items, || {
        "feedback_items differ from the partition reports".into()
    });
    report.check(part_sum(|r| r.links_added) == c.links_added, || {
        "links_added differ from the partition reports".into()
    });
    report.check(part_sum(|r| r.links_removed) == c.links_removed, || {
        "links_removed differ from the partition reports".into()
    });
    report.check(parts.iter().all(|r| r.len() == c.episodes + 1), || {
        "partition episode counts differ from the global count".into()
    });
    report.check(
        p.driver.candidate_links() == p.outcome.final_links
            && p.outcome.reports.last().map(|r| r.candidates) == Some(c.candidates),
        || "final candidate count differs from the driver's".into(),
    );
    report.check(p.truth.len() == inputs.truth.len(), || {
        "ground truth names entities missing from the datasets".into()
    });
    f
}

/// Durations of a pass's feedback episodes, in milliseconds.
fn episode_ms(p: &Pass) -> Vec<f64> {
    let timed = p.outcome.reports[1..].iter().take(TIMED_EPISODES);
    timed.map(|r| r.duration_ms).collect()
}

/// Runs the workload. `flip` inverts one oracle judgement in the last
/// pass, which the comparison with the first pass must catch.
pub fn run(inputs: &Inputs, trace: bool, flip: bool, report: &mut Report) -> Result<(), String> {
    let off = Recorder::new(false);
    let first = pass(inputs, &off, false)?;
    let final_f1 = verify(&first, inputs, report);
    let first_counts = counts(&first);
    let first_links = pairs(&first.outcome.final_links, &first.left, &first.right);
    report.attempted += 1;
    report.note(
        "episodes",
        Value::Number(Number::U64(first_counts.episodes as u64)),
    );
    // A repeated pass must curate exactly what the first one did.
    let repeat = |report: &mut Report, rec: &Recorder, flip: bool| -> Result<Pass, String> {
        let p = pass(inputs, rec, flip)?;
        verify(&p, inputs, report);
        let same = counts(&p) == first_counts
            && pairs(&p.outcome.final_links, &p.left, &p.right) == first_links;
        report.check(same, || "a repeated pass curated different links".into());
        report.attempted += 1;
        Ok(p)
    };

    if !trace {
        let mut setups = vec![first.setup_s];
        let mut curates = vec![first.curate_s];
        let mut runs = vec![first.run_s];
        let mut episodes = episode_ms(&first);
        // One pipeline's peak, before the inspection's session and the
        // repeats fragment the heap.
        let rss = crate::report::peak_rss_mb().ok_or("cannot read VmHWM")?;
        // The inspection runs over HTTP against a session created from
        // the curated links: the same sub-millisecond calls made in
        // process were bimodal across runs (0.6 or 0.9 ms per query). It
        // runs in one chunk after each pass, so a burst of machine noise
        // moves one chunk's median, not the reported one.
        let mut curated: Vec<IriPair> = first_links.iter().cloned().collect();
        curated.sort_unstable();
        drop(first);
        let body = crate::serve::create_body(inputs, &curated, false);
        let crate::serve::Live {
            server, mut http, ..
        } = crate::serve::start(&body, None)?;
        report.attempted += 1;
        let chunks = inspection_ops(inputs);
        let mut runs_by_chunk = Vec::new();
        for (rep, ops) in chunks.into_iter().enumerate() {
            if rep > 0 {
                let p = repeat(report, &off, flip && rep + 1 == REPS)?;
                setups.push(p.setup_s);
                curates.push(p.curate_s);
                runs.push(p.run_s);
                episodes.extend(episode_ms(&p));
            }
            let run = run_script(&mut http, ops, false, &inputs.truth, &off, false);
            report.attempted += run.done.len() as u64;
            report.failed += run.failed();
            runs_by_chunk.push(run);
        }
        // Close the connection first: shutdown waits for its worker.
        drop(http);
        server.shutdown();
        let chunk_p50 = |kind: &str| -> Vec<f64> {
            let p50s = runs_by_chunk.iter().filter_map(|r| median(&r.ms(kind)));
            p50s.collect()
        };
        report.metric("setup_s", median(&setups).expect("REPS > 0"), "s");
        report.metric("curate_s", median(&curates).expect("REPS > 0"), "s");
        report.metric("curated_f1", final_f1, "ratio");
        report.metric(
            "query_ms_p50",
            median(&chunk_p50("query")).unwrap_or(f64::NAN),
            "ms",
        );
        report.latency("feedback_ms", &episodes, false);
        report.metric(
            "links_ms_p50",
            median(&chunk_p50("links")).unwrap_or(f64::NAN),
            "ms",
        );
        report.metric("peak_rss_mb", rss, "MB");
        for (name, v) in [
            ("setup_s_samples", &setups),
            ("curate_s_samples", &curates),
            ("run_to_convergence_s_samples", &runs),
            ("query_ms_chunk_p50s", &chunk_p50("query")),
            ("links_ms_chunk_p50s", &chunk_p50("links")),
        ] {
            report.note(name, Value::Array(v.iter().map(|&s| num(s)).collect()));
        }
        return Ok(());
    }

    // Traced: the same pass again inside spans, compared with the
    // untraced pass for the tracing overhead.
    let untraced_run = first.run_s;
    drop(first);
    let rec = Recorder::new(true);
    let p = repeat(report, &rec, flip)?;
    let c = counts(&p);
    offline_layers(
        report, &p.left, &p.right, &p.paris, p.initial, &p.driver, &rec,
    );
    let path_s: f64 = (1..=c.episodes)
        .map(|ep| {
            p.outcome
                .partition_reports
                .iter()
                .map(|r| r[ep].duration_ms)
                .fold(0.0, f64::max)
        })
        .sum::<f64>()
        / 1e3;
    report.extra("core.driver.partition_path_s", path_s, "s");
    report.extra("core.driver.overhead_s", p.run_s - path_s, "s");
    driver_counts(
        report,
        c.episodes,
        c.feedback_items,
        c.links_added,
        c.links_removed,
        c.rollbacks,
    );
    report.metric("trace.overhead_ratio", p.run_s / untraced_run, "ratio");
    let episodes = episode_ms(&p);
    let mut curator = inspection_session(p, &rec)?;
    let ops = inspection_ops(inputs).concat();
    let run = run_script(&mut curator, &ops, false, &inputs.truth, &rec, false);
    let candidates_end = curator.session.driver.candidate_links().len();
    report.attempted += run.done.len() as u64;
    report.failed += run.failed();
    let prof = Profile::build(&rec.spans());
    report.note("profile", prof.to_json());
    session_layers(report, &prof, &run, candidates_end, &episodes);
    report.latency("query_ms", &run.ms("query"), true);
    report.latency("feedback_ms", &episodes, true);
    store_layers(report, Default::default(), 0, 0);
    Ok(())
}

/// `rdf`, `paris`, `sim` and `core.space` metrics of one traced pass.
pub fn offline_layers(
    report: &mut Report,
    left: &Store,
    right: &Store,
    paris: &ParisOutput,
    initial: usize,
    driver: &AlexDriver,
    rec: &Recorder,
) {
    let prof = Profile::build(&rec.spans());
    let s = |name: &str| prof.sum_ms(name) / 1e3;
    report.metric("rdf.load_s", s("rdf.load"), "s");
    report.metric("rdf.triples", (left.len() + right.len()) as f64, "count");
    let st = &paris.stats;
    let run_s = s("paris.run");
    let stages = st.blocking_seconds + st.equivalence_seconds + st.alignment_seconds;
    report.check(stages <= run_s, || {
        format!("PARIS stages sum to {stages} s, more than paris.run_s {run_s} s")
    });
    report.metric("paris.run_s", run_s, "s");
    report.metric("paris.blocking_s", st.blocking_seconds, "s");
    report.metric("paris.equivalence_s", st.equivalence_seconds, "s");
    report.metric("paris.alignment_s", st.alignment_seconds, "s");
    report.metric(
        "paris.candidates",
        paris.candidates_examined as f64,
        "count",
    );
    report.metric("paris.links", initial as f64, "count");
    let rate = |c: alex_sim::CacheStats| c.hits as f64 / c.total().max(1) as f64;
    report.metric("sim.paris_hit_rate", rate(st.cache), "ratio");
    let build = driver.build_stats();
    report.metric("sim.space_hit_rate", rate(build.cache), "ratio");
    report.metric("core.space.build_s", s("core.space.build"), "s");
    report.metric("core.space.pairs", build.pairs as f64, "count");
}

/// Summed `core.driver` episode counters.
pub fn driver_counts(
    report: &mut Report,
    episodes: usize,
    feedback_items: usize,
    links_added: usize,
    links_removed: usize,
    rollbacks: usize,
) {
    report.metric("core.driver.episodes", episodes as f64, "count");
    report.metric("core.driver.feedback_items", feedback_items as f64, "count");
    report.metric("core.driver.links_added", links_added as f64, "count");
    report.metric("core.driver.links_removed", links_removed as f64, "count");
    report.metric("core.driver.rollbacks", rollbacks as f64, "count");
}

/// `core.session` and `query` metrics of a traced script run;
/// `episodes_ms` are the feedback episodes' durations.
pub fn session_layers(
    report: &mut Report,
    prof: &Profile,
    run: &ScriptRun,
    candidates_end: usize,
    episodes_ms: &[f64],
) {
    let p50 = |name: &str| median(prof.total(name)).unwrap_or(f64::NAN);
    report.metric(
        "core.feedback_ms_p50",
        median(episodes_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "core.candidate_links_ms_p50",
        p50("core.candidate_links"),
        "ms",
    );
    report.metric(
        "core.session.snapshot_ms_p50",
        p50("core.session.snapshot"),
        "ms",
    );
    report.metric("core.candidates_end", candidates_end as f64, "count");
    report.metric("query.parse_us_p50", p50("query.parse") * 1e3, "us");
    report.metric("query.engine_build_ms_p50", p50("query.engine_build"), "ms");
    report.metric("query.execute_ms_p50", p50("query.execute"), "ms");
    report.metric("query.answers", run.answers() as f64, "count");
    report.metric("query.probes", run.probes as f64, "count");
}

/// `store` metrics: WAL counters as `/metrics` reports them, per
/// feedback item, and the bytes the session's state directory holds.
pub fn store_layers(
    report: &mut Report,
    wal: crate::curator::WalTotals,
    feedback_items: u64,
    state_dir_bytes: u64,
) {
    report.metric("store.wal_appends", wal.appends as f64, "count");
    report.metric("store.wal_fsyncs", wal.fsyncs as f64, "count");
    report.metric("store.wal_bytes", wal.bytes as f64, "bytes");
    let per_item = if feedback_items == 0 {
        0.0
    } else {
        wal.bytes as f64 / feedback_items as f64
    };
    report.metric("store.wal_bytes_per_item", per_item, "bytes");
    report.metric("store.state_dir_bytes", state_dir_bytes as f64, "bytes");
}
