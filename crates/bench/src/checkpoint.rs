//! Mid-trial checkpoint/resume for long experiment runs.
//!
//! A checkpointed trial periodically captures its full execution state —
//! network, adversary, and protocol session, via
//! [`bdclique_core::snapshot_run`] — into a file under the checkpoint
//! directory, and a rerun of the same configuration picks the trial up from
//! the latest capture instead of from round 0. Because snapshots are
//! quiescent full-state captures, a resumed trial is **bit-identical** to
//! an uninterrupted one (the tier-1 `checkpoint_identity` suite pins this
//! per protocol); checkpointing only changes where the wall-clock went.
//!
//! # File discipline
//!
//! One file per trial, keyed by the cell's seed-stream state and the trial
//! index — both deterministic, so a rerun of the same scenario grid maps
//! onto the same files. Writes are atomic (`.tmp` + rename): a `SIGKILL`
//! at any byte leaves either the previous complete checkpoint or the new
//! one, never a torn file. Finished trials delete their checkpoint.
//!
//! # Wall-clock accounting
//!
//! Each checkpoint records the wall-clock seconds consumed by all previous
//! segments. A resumed cell reports `secs` as the **sum of segments** —
//! the time the computation actually cost across interruptions — which is
//! what the scenario JSON's per-cell `secs` carries.

use crate::{Trial, TrialSeeds, TrialSpec};
use bdclique_core::protocols::{AllToAllProtocol, Step};
use bdclique_core::{restore_run, snapshot_run, CoreError};
use bdclique_snapshot::{Dec, Enc, SnapError};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic string opening every checkpoint file (the bench-level wrapper
/// around the core snapshot payload).
const WRAPPER_MAGIC: &str = "bdck1";

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the per-trial checkpoint files (created on first
    /// write).
    pub dir: PathBuf,
    /// Rounds between captures. `0` disables periodic capture (resume from
    /// existing files still works).
    pub every: u64,
}

impl CheckpointConfig {
    /// The checkpoint file for a trial key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }
}

/// Wraps a core snapshot payload with the bench-level header: magic,
/// accumulated prior wall-clock seconds, payload.
fn encode_wrapper(prior_secs: f64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_str(WRAPPER_MAGIC);
    enc.put_f64(prior_secs);
    enc.put_bytes(payload);
    enc.into_bytes()
}

/// Splits a checkpoint file into accumulated seconds and the core payload.
fn decode_wrapper(bytes: &[u8]) -> Result<(f64, &[u8]), SnapError> {
    let mut dec = Dec::new(bytes);
    if dec.get_str()? != WRAPPER_MAGIC {
        return Err(SnapError::corrupt("not a bench checkpoint file"));
    }
    let secs = dec.get_f64()?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(SnapError::corrupt("negative or non-finite segment time"));
    }
    let payload = dec.get_bytes()?;
    dec.finish()?;
    Ok((secs, payload))
}

/// Atomically replaces `path` with `bytes`: write `<path>.tmp`, rename over
/// the target. On POSIX the rename is atomic, so a crash at any point
/// leaves either the old complete file or the new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("ckpt.tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn io_err(what: &str, path: &Path, e: &io::Error) -> CoreError {
    CoreError::InvalidInput {
        reason: format!("checkpoint {what} {}: {e}", path.display()),
    }
}

/// Runs one trial with periodic checkpointing, resuming from an existing
/// checkpoint file when one is present. Returns the trial outcome plus the
/// wall-clock seconds prior segments consumed (zero for a fresh run); the
/// caller folds that into its own timing.
///
/// The instance, network, and adversary come from [`TrialSpec::build`], the
/// constructor [`crate::run_trial`] uses, so the outcome is bit-identical to
/// the uncheckpointed runner.
///
/// # Errors
///
/// Propagates protocol errors, and reports unreadable or corrupt
/// checkpoint files as [`CoreError`] (never silently restarting from
/// round 0 — a bad resume must be loud).
pub fn run_trial_checkpointed(
    proto: &dyn AllToAllProtocol,
    spec: &TrialSpec,
    seeds: TrialSeeds,
    cfg: &CheckpointConfig,
    key: &str,
) -> Result<(Trial, f64), CoreError> {
    let start = Instant::now();
    let (inst, fresh) = spec.build(seeds);
    let path = cfg.path_for(key);
    let (prior_secs, mut net, mut session) = match fs::read(&path) {
        Ok(bytes) => {
            let (secs, payload) = decode_wrapper(&bytes).map_err(CoreError::from)?;
            let adversary = spec.adversary.build(seeds.adversary);
            let (net, session) = restore_run(payload, adversary, proto, &inst)?;
            (secs, net, session)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let session = proto.session(&fresh, &inst)?;
            (0.0, fresh, session)
        }
        Err(e) => return Err(io_err("read", &path, &e)),
    };
    let mut last_mark = net.rounds();
    let out = loop {
        match session.step(&mut net)? {
            Step::Done(out) => break out,
            Step::Running => {}
        }
        if cfg.every > 0 && net.rounds() >= last_mark + cfg.every {
            let payload = snapshot_run(&net, session.as_ref())?;
            let doc = encode_wrapper(prior_secs + start.elapsed().as_secs_f64(), &payload);
            write_atomic(&path, &doc).map_err(|e| io_err("write", &path, &e))?;
            last_mark = net.rounds();
        }
    };
    // The trial is done: its checkpoint (if any) is spent. Removal failure
    // is harmless — the next run of this key resumes at the final rounds
    // and completes immediately with the same deterministic output.
    let _ = fs::remove_file(&path);
    Ok((Trial::score(&inst, &net, &out), prior_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_trial, AdversarySpec};
    use bdclique_core::protocols::RelayReplication;

    fn spec() -> TrialSpec {
        TrialSpec::clique(16, 2, 9, 0.25, AdversarySpec::RandomMatchingsFlip)
    }

    fn temp_cfg(tag: &str, every: u64) -> CheckpointConfig {
        CheckpointConfig {
            dir: std::env::temp_dir().join(format!("bdc-ckpt-{tag}-{}", std::process::id())),
            every,
        }
    }

    /// A checkpointed trial with no pre-existing file matches the plain
    /// runner bit for bit, and cleans up after itself.
    #[test]
    fn fresh_checkpointed_trial_matches_plain_runner() {
        let proto = RelayReplication { copies: 3 };
        let seeds = TrialSeeds::derive(11);
        let cfg = temp_cfg("fresh", 1);
        let (trial, prior) =
            run_trial_checkpointed(&proto, &spec(), seeds, &cfg, "unit-fresh").unwrap();
        assert_eq!(prior, 0.0);
        let plain = run_trial(&proto, &spec(), seeds, None).unwrap();
        assert_eq!(trial, plain);
        assert!(
            !cfg.path_for("unit-fresh").exists(),
            "finished trial must delete its checkpoint"
        );
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    /// Interrupting after the first checkpoint and rerunning resumes from
    /// the file (not round 0) and still reproduces the plain outcome, with
    /// the first segment's wall clock carried over.
    #[test]
    fn resumed_trial_reproduces_plain_outcome() {
        let proto = RelayReplication { copies: 3 };
        let seeds = TrialSeeds::derive(12);
        let cfg = temp_cfg("resume", 1);
        let key = "unit-resume";
        // Segment 1: run manually to round 2, checkpoint, "crash".
        {
            let (inst, mut net) = spec().build(seeds);
            let mut session = proto.session(&net, &inst).unwrap();
            while net.rounds() < 2 {
                assert!(matches!(session.step(&mut net).unwrap(), Step::Running));
            }
            let payload = snapshot_run(&net, session.as_ref()).unwrap();
            write_atomic(&cfg.path_for(key), &encode_wrapper(1.5, &payload)).unwrap();
        }
        // Segment 2: the checkpointed runner picks the file up.
        let (trial, prior) = run_trial_checkpointed(&proto, &spec(), seeds, &cfg, key).unwrap();
        assert_eq!(prior, 1.5, "prior segment seconds must carry over");
        let plain = run_trial(&proto, &spec(), seeds, None).unwrap();
        assert_eq!(trial, plain, "resumed trial must be bit-identical");
        assert!(!cfg.path_for(key).exists());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    /// Corrupt or truncated checkpoint files fail loudly instead of
    /// silently restarting the trial.
    #[test]
    fn corrupt_checkpoint_files_are_rejected() {
        let proto = RelayReplication { copies: 3 };
        let seeds = TrialSeeds::derive(13);
        let cfg = temp_cfg("corrupt", 4);
        fs::create_dir_all(&cfg.dir).unwrap();
        for (name, bytes) in [
            ("bad-magic", encode_wrapper(0.0, b"xx")[..4].to_vec()),
            ("garbage", b"not a checkpoint".to_vec()),
            ("empty", Vec::new()),
        ] {
            fs::write(cfg.path_for(name), &bytes).unwrap();
            let err = run_trial_checkpointed(&proto, &spec(), seeds, &cfg, name);
            assert!(err.is_err(), "{name} must be rejected");
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn wrapper_round_trips_and_rejects_truncation() {
        let doc = encode_wrapper(2.25, b"payload-bytes");
        let (secs, payload) = decode_wrapper(&doc).unwrap();
        assert_eq!(secs, 2.25);
        assert_eq!(payload, b"payload-bytes");
        for cut in [0, 1, doc.len() / 2, doc.len() - 1] {
            assert!(decode_wrapper(&doc[..cut]).is_err(), "cut at {cut}");
        }
    }
}
