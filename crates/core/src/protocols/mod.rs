//! The `AllToAllComm` protocols of Table 1, plus baselines.
//!
//! | Protocol | Paper result | Adversary | Rounds | α regime |
//! |---|---|---|---|---|
//! | [`NaiveExchange`] | — (baseline) | none | 1 | 0 |
//! | [`RelayReplication`] | — (static-FT baseline) | static | `O(R)` | breaks under mobile matchings |
//! | [`NonAdaptiveAllToAll`] | Thm 1.2 | α-NBD | `O(1)` | `Θ(1)` |
//! | [`AdaptiveTakeOne`] | §3 "Take I" | α-ABD | `O(q)` | `Θ̃(1/q)` |
//! | [`AdaptiveAllToAll`] | Thm 1.3 "Take II" | α-ABD | `O(1)`* | `Θ̃(1/(q·t·b))` |
//! | [`DetHypercube`] | Thm 1.4 | α-ABD | `O(log n)` | `Θ(1)` |
//! | [`DetSqrt`] | Thm 1.5 | α-ABD | `O(1)` | `Θ(1/√n)` |
//!
//! (*) asymptotically; the measured constant at `n = 16` is 9056 rounds
//! through the LDC fetch and 181 with the direct sketch pull (the goldens
//! in `tests/session_regression.rs`).

mod adaptive;
mod det_logn;
mod det_sqrt;
mod naive;
mod nonadaptive;
mod relay;

pub use adaptive::{AdaptiveAllToAll, AdaptiveTakeOne};
pub use det_logn::DetHypercube;
pub use det_sqrt::DetSqrt;
pub use naive::NaiveExchange;
pub use nonadaptive::NonAdaptiveAllToAll;
pub use relay::RelayReplication;

use crate::error::CoreError;
use crate::problem::{AllToAllInstance, AllToAllOutput};
use crate::routing::SharedCodewordCache;
use bdclique_netsim::{Adversary, Network};
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;

/// What one [`ProtocolSession::step`] produced.
#[derive(Debug)]
pub enum Step {
    /// The session advanced (at most one `exchange`) and has more to do.
    Running,
    /// The protocol finished; here is its output.
    Done(AllToAllOutput),
}

/// A protocol execution in flight — the resumable form of
/// [`AllToAllProtocol::run`].
///
/// Sessions are explicit state machines: [`ProtocolSession::step`] advances
/// the protocol by **at most one** network `exchange` (most steps perform
/// exactly one; the step that completes the protocol may perform none, and
/// pure computation is folded into the adjacent exchange's step). This is
/// what lets anything outside the protocol — the [`crate::driver::Driver`]'s
/// observers, a scheduled adversary swap, a round-budget guard — see the
/// network *between* rounds, mirroring how the paper's mobile adversary
/// re-chooses its corrupted edge set every round.
pub trait ProtocolSession {
    /// Advances at most one `exchange`.
    ///
    /// # Errors
    ///
    /// [`CoreError`] on malformed inputs or infeasible parameters for the
    /// network's α, surfaced at the same point in the round sequence as the
    /// former monolithic loops surfaced them.
    fn step(&mut self, net: &mut Network) -> Result<Step, CoreError>;

    /// Appends the session's dynamic state to `enc` so the run can later be
    /// resumed via [`AllToAllProtocol::restore_session`].
    ///
    /// A session is always exactly between two `step` calls — nothing runs
    /// in the background — so the state it holds is the state to write, and
    /// continuing to step it afterwards is bit-identical to never having
    /// snapshotted.
    ///
    /// Only state that cannot be re-derived from the protocol's
    /// configuration belongs in the snapshot; plans, schedules, and codes
    /// are rebuilt at restore (see `bdclique-snapshot`'s crate docs).
    ///
    /// # Errors
    ///
    /// The default declines with [`CoreError::InvalidInput`] — sessions opt
    /// in explicitly.
    fn snapshot(&self, enc: &mut Enc) -> Result<(), CoreError> {
        let _ = enc;
        Err(CoreError::invalid(
            "this protocol session does not support snapshots",
        ))
    }
}

/// A solution to the `AllToAllComm` problem.
///
/// `Send + Sync` is a supertrait so that a `&dyn AllToAllProtocol` can be
/// shared across the bench harness's parallel trial runners; every protocol
/// here is plain configuration data, and per-run state lives in the session
/// and the network.
///
/// # Implementing
///
/// The one required execution method is [`AllToAllProtocol::session`]:
/// return a [`ProtocolSession`] state machine that performs at most one
/// `exchange` per step. [`AllToAllProtocol::run`] is a default method that
/// loops `step()` to completion — bit-identical to the pre-session
/// monolithic loops (regression-tested), so existing callers are unaffected.
pub trait AllToAllProtocol: Send + Sync {
    /// Short name for reports. Parameterized protocols should report their
    /// configuration (e.g. `relay-replication(x3)`), which is why this is a
    /// [`Cow`] rather than a `&'static str`.
    fn name(&self) -> Cow<'static, str>;

    /// Opens a resumable session for this protocol on `inst`. Validation
    /// that needs no rounds (shape checks, parameter feasibility known up
    /// front) should happen here; no `exchange` may run until the first
    /// [`ProtocolSession::step`].
    ///
    /// Node locality discipline: the session may read `inst.message(u, v)`
    /// only while computing node `u`'s sends, and must route everything
    /// else through `net`.
    ///
    /// # Errors
    ///
    /// [`CoreError`] on malformed inputs or parameters infeasible for the
    /// network's α.
    fn session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError>;

    /// Attaches an encode counter that outlives individual runs: every
    /// routing session the protocol opens adds the Reed–Solomon codewords
    /// it encodes, and the caller reads the total back through
    /// [`CodewordCache::stats`](crate::routing::CodewordCache::stats). It
    /// changes nothing on the wire or in the output, and the count is a
    /// function of the instances routed. (The name is the frozen
    /// benchmark's; see [`crate::routing::CodewordCache`].)
    ///
    /// The default is a no-op: protocols that never encode codewords (the
    /// baselines) simply ignore the handle.
    fn attach_codeword_cache(&mut self, counter: SharedCodewordCache) {
        let _ = counter;
    }

    /// Reopens a session from state serialized by
    /// [`ProtocolSession::snapshot`]. The protocol and instance are the
    /// caller's responsibility (rebuilt from their specs — seeds,
    /// parameters); this method rebuilds the session's derived structure
    /// exactly as [`AllToAllProtocol::session`] would and overlays the
    /// decoded dynamic state, so stepping the restored session is
    /// bit-identical to stepping the original.
    ///
    /// # Errors
    ///
    /// The default declines with [`CoreError::InvalidInput`]; implementors
    /// surface [`CoreError`] on corrupt or mismatched state.
    fn restore_session<'a>(
        &'a self,
        net: &Network,
        inst: &'a AllToAllInstance,
        dec: &mut Dec<'_>,
    ) -> Result<Box<dyn ProtocolSession + 'a>, CoreError> {
        let _ = (net, inst, dec);
        Err(CoreError::invalid(
            "this protocol does not support session restore",
        ))
    }

    /// Runs the protocol to completion by looping [`ProtocolSession::step`].
    ///
    /// # Errors
    ///
    /// [`CoreError`] on malformed inputs or infeasible parameters for the
    /// network's α.
    fn run(&self, net: &mut Network, inst: &AllToAllInstance) -> Result<AllToAllOutput, CoreError> {
        let mut session = self.session(net, inst)?;
        loop {
            match session.step(net)? {
                Step::Running => {}
                Step::Done(out) => return Ok(out),
            }
        }
    }
}

/// Captures a mid-run checkpoint of a protocol execution: the network's
/// full dynamic state followed by the session's, as one versioned snapshot
/// document.
///
/// The document describes the run exactly between two steps; the session
/// remains valid and continuing to step it is bit-identical to never
/// having snapshotted.
///
/// The instance, the protocol, and the adversary are *not* serialized —
/// they are rebuilt from their specs at [`restore_run`] (the hybrid rule:
/// behavioral objects are reconstructed, state is overlaid).
///
/// # Errors
///
/// [`CoreError::InvalidInput`] when the session does not support snapshots.
pub fn snapshot_run(
    net: &Network,
    session: &(dyn ProtocolSession + '_),
) -> Result<Vec<u8>, CoreError> {
    // The network section goes first: restore needs the network before the
    // session can be rebuilt against it.
    let mut enc = Enc::with_header();
    net.snapshot(&mut enc);
    let mut session_enc = Enc::new();
    session.snapshot(&mut session_enc)?;
    enc.put_bytes(session_enc.bytes());
    Ok(enc.into_bytes())
}

/// Reopens a checkpoint written by [`snapshot_run`]: restores the network
/// (overlaying the serialized dynamic state onto `adversary`, which the
/// caller rebuilt from its spec) and the protocol session, positioned to
/// continue bit-identically with the uninterrupted run.
///
/// `protocol` and `inst` must be the same configuration the snapshotted run
/// used — typically re-derived from the same seeds.
///
/// # Errors
///
/// [`CoreError`] on corrupt documents, adversary-kind mismatches, or
/// protocols without restore support.
pub fn restore_run<'a>(
    bytes: &[u8],
    adversary: Adversary,
    protocol: &'a dyn AllToAllProtocol,
    inst: &'a AllToAllInstance,
) -> Result<(Network, Box<dyn ProtocolSession + 'a>), CoreError> {
    let mut dec = Dec::with_header(bytes).map_err(CoreError::from)?;
    let net = Network::restore(&mut dec, adversary)?;
    let session_bytes = dec.get_bytes()?;
    dec.finish()?;
    let mut session_dec = Dec::new(session_bytes);
    let session = protocol.restore_session(&net, inst, &mut session_dec)?;
    session_dec.finish()?;
    Ok((net, session))
}
