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
//! onto the same files. Writes are atomic and durable (`.tmp`, `fsync`,
//! rename, `fsync` of the directory): a `SIGKILL` or a host crash at any
//! byte leaves either the previous complete checkpoint or the new one,
//! never a torn file. Every file carries a 64-bit digest of its payload,
//! so a checkpoint whose bytes rotted on disk is refused instead of
//! resumed into a different run. Finished trials delete their checkpoint.
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
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic string opening every checkpoint file (the bench-level wrapper
/// around the core snapshot payload). `bdck2` added the payload digest; a
/// `bdck1` file is refused like any other foreign file.
const WRAPPER_MAGIC: &str = "bdck2";

/// FNV-1a over `bytes`: the wrapper's payload digest. Every step is a
/// bijection of the 64-bit state (xor, then multiply by an odd prime), so
/// two payloads of one length that differ in a single byte never collide;
/// wider damage escapes with probability about 2⁻⁶⁴. It guards against
/// rot, not against an adversary, who could recompute it.
fn payload_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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
/// accumulated prior wall-clock seconds, payload digest, payload.
fn encode_wrapper(prior_secs: f64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_str(WRAPPER_MAGIC);
    enc.put_f64(prior_secs);
    enc.put_u64(payload_digest(payload));
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
    let digest = dec.get_u64()?;
    let payload = dec.get_bytes()?;
    dec.finish()?;
    if payload_digest(payload) != digest {
        return Err(SnapError::corrupt("checkpoint payload fails its digest"));
    }
    Ok((secs, payload))
}

/// Atomically and durably replaces `path` with `bytes`: write and `fsync`
/// `<path>.tmp`, rename it over the target, `fsync` the directory. The
/// rename is atomic on POSIX, the first sync keeps it from landing before
/// the data and the second makes the new name itself survive, so a crash
/// at any point — of the process or of the host — leaves either the old
/// complete file or the new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // A bare file name has the empty parent, which cannot be opened.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the trial's wall-clock seconds are the measurement"
    )]
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
    use bdclique_core::protocols::{DetSqrt, RelayReplication};

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
        // The digest-less layout this wrapper replaced.
        let mut v1 = Enc::new();
        v1.put_str("bdck1");
        v1.put_f64(0.0);
        v1.put_bytes(b"xx");
        for (name, bytes) in [
            ("bad-magic", encode_wrapper(0.0, b"xx")[..4].to_vec()),
            ("bdck1", v1.into_bytes()),
            ("garbage", b"not a checkpoint".to_vec()),
            ("empty", Vec::new()),
        ] {
            fs::write(cfg.path_for(name), &bytes).unwrap();
            let err = run_trial_checkpointed(&proto, &spec(), seeds, &cfg, name);
            assert!(err.is_err(), "{name} must be rejected");
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    /// A flipped payload byte that still *decodes* — inside a chunk-store
    /// or relay-grid bit string, say — would resume into a different run
    /// with no error. The digest refuses every one: a damaged checkpoint of
    /// a routed protocol is an `Err`, never an `Ok` with another outcome.
    #[test]
    fn flipped_payload_bytes_are_refused_not_resumed() {
        let proto = DetSqrt::default();
        let spec = TrialSpec::clique(16, 1, 18, 0.07, AdversarySpec::GreedyFlip);
        let seeds = TrialSeeds::derive(14);
        let cfg = temp_cfg("flip", 0);
        let key = "unit-flip";
        let plain = run_trial(&proto, &spec, seeds, None).unwrap();

        // A real mid-run capture: half-way through the routed waves.
        let (inst, mut net) = spec.build(seeds);
        let mut session = proto.session(&net, &inst).unwrap();
        while net.rounds() < plain.rounds / 2 {
            assert!(matches!(session.step(&mut net).unwrap(), Step::Running));
        }
        let payload = snapshot_run(&net, session.as_ref()).unwrap();
        let doc = encode_wrapper(0.0, &payload);
        let header = doc.len() - payload.len();

        write_atomic(&cfg.path_for(key), &doc).unwrap();
        let (resumed, _) = run_trial_checkpointed(&proto, &spec, seeds, &cfg, key).unwrap();
        assert_eq!(resumed, plain, "the undamaged capture resumes identically");

        let offsets = (0..payload.len())
            .step_by((payload.len() / 61).max(1))
            .chain([payload.len() - 1]);
        for at in offsets {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = doc.clone();
                bad[header + at] ^= mask;
                fs::write(cfg.path_for(key), &bad).unwrap();
                let got = run_trial_checkpointed(&proto, &spec, seeds, &cfg, key);
                assert!(got.is_err(), "payload byte {at} ^ {mask:#04x}: {got:?}");
            }
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
