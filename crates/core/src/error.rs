//! The unified error hierarchy of the application layer.
//!
//! Every fallible entry point in `cc_core` — the [`crate::Solver`] session
//! API and the [`crate::Algorithm`] impls — returns [`CcError`]. The
//! per-subsystem error types ([`ParamError`], [`MsspError`],
//! [`HittingError`], [`EngineError`]) remain the source-of-truth payloads
//! and convert in via `From`, so callers can still match on the precise
//! cause while handling a single type at the API boundary.

use cc_clique::EngineError;
use cc_derand::hitting::HittingError;
use cc_emulator::params::ParamError;

use crate::mssp::MsspError;

/// Unified error type for the `cc_core` application layer.
#[non_exhaustive]
#[derive(Clone, PartialEq, Debug)]
pub enum CcError {
    /// Invalid algorithm parameters (accuracy, level count, graph order).
    Params(ParamError),
    /// Invalid MSSP request (source count or range).
    Mssp(MsspError),
    /// A hitting-set instance failed validation (a pipeline promised set
    /// sizes it did not deliver).
    Hitting(HittingError),
    /// The message-level clique engine rejected a program.
    Engine(EngineError),
    /// A solver query was issued against a configuration that cannot
    /// support it.
    UnsupportedQuery {
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for CcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcError::Params(e) => write!(f, "invalid parameters: {e}"),
            CcError::Mssp(e) => write!(f, "invalid MSSP request: {e}"),
            CcError::Hitting(e) => write!(f, "invalid hitting-set instance: {e}"),
            CcError::Engine(e) => write!(f, "clique engine error: {e}"),
            CcError::UnsupportedQuery { reason } => write!(f, "unsupported query: {reason}"),
        }
    }
}

impl std::error::Error for CcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcError::Params(e) => Some(e),
            CcError::Mssp(e) => Some(e),
            CcError::Hitting(e) => Some(e),
            CcError::Engine(e) => Some(e),
            CcError::UnsupportedQuery { .. } => None,
        }
    }
}

impl From<ParamError> for CcError {
    fn from(e: ParamError) -> Self {
        CcError::Params(e)
    }
}

impl From<MsspError> for CcError {
    fn from(e: MsspError) -> Self {
        CcError::Mssp(e)
    }
}

impl From<HittingError> for CcError {
    fn from(e: HittingError) -> Self {
        CcError::Hitting(e)
    }
}

impl From<EngineError> for CcError {
    fn from(e: EngineError) -> Self {
        CcError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_preserve_payloads() {
        let e: CcError = ParamError::BadEps(2.0).into();
        assert!(matches!(e, CcError::Params(ParamError::BadEps(_))));
        let e: CcError = MsspError::NoSources.into();
        assert!(matches!(e, CcError::Mssp(MsspError::NoSources)));
        let e: CcError = HittingError::SetTooSmall {
            index: 0,
            size: 1,
            k: 2,
        }
        .into();
        assert!(matches!(e, CcError::Hitting(_)));
        let e: CcError = EngineError::RoundLimitExceeded { limit: 5 }.into();
        assert!(matches!(e, CcError::Engine(_)));
    }

    #[test]
    fn display_and_source_are_wired() {
        let e: CcError = ParamError::BadEps(2.0).into();
        assert!(e.to_string().contains("invalid parameters"));
        assert!(e.source().is_some());
        let e = CcError::UnsupportedQuery {
            reason: "no estimates yet".into(),
        };
        assert!(e.to_string().contains("no estimates yet"));
        assert!(e.source().is_none());
    }
}
