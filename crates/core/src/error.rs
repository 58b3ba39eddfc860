//! Engine-level errors.

use gputx_exec::ExecError;

/// Typed failure of a bulk execution at the engine level.
///
/// The fallible entry point is
/// [`try_execute_bulk_planned`](crate::strategy::try_execute_bulk_planned),
/// which takes the executor as an argument; only the parallel executor
/// reports these (a panicking stored procedure). The engines'
/// [`execute_bulk`](crate::execute_bulk) runs the serial executor, which
/// never fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The host executor failed (a panicking procedure surfaced by the
    /// parallel executor). See [`ExecError::WorkerPanicked`] for what state a
    /// failed bulk leaves behind (none on the worker path; partial in-place
    /// effects on the inline serial fallback).
    Exec(ExecError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Exec(e) => write!(f, "bulk execution failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Exec(e) => Some(e),
        }
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_the_cause() {
        let err = EngineError::from(ExecError::WorkerPanicked {
            shard: 3,
            message: "boom".into(),
        });
        let text = err.to_string();
        assert!(text.contains("shard 3"));
        assert!(text.contains("boom"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
