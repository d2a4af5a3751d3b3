//! The serving-stack error type.

use std::fmt;

/// Errors produced by the model store, batch engine, protocol codec and server.
#[derive(Debug)]
pub enum ServeError {
    /// A model name was not present in the store.
    UnknownModel {
        /// The requested name.
        name: String,
        /// The names the store does know.
        known: Vec<String>,
    },
    /// Loading, saving or transforming through a model failed.
    Core(mvcore::CoreError),
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// A frame or message violated the wire protocol.
    Protocol(String),
    /// The remote side reported an error for our request.
    Remote(String),
    /// The batch engine is shutting down and dropped the request.
    EngineStopped,
    /// Every shard that could serve the request is dead.
    NoLiveShards,
    /// Admission control shed the request: a queue or in-flight cap was hit.
    /// The work was rejected *before* any computation — retrying elsewhere (or
    /// later) is safe and encouraged.
    Overloaded(String),
    /// The request's deadline passed before the work ran; the answer would have
    /// been dead on arrival, so it was never computed.
    DeadlineExceeded(String),
    /// A model call panicked. The engine caught the unwind and answered in band;
    /// it keeps serving. The same request would panic on any shard.
    ModelPanicked {
        /// Store name of the model whose call panicked.
        model: String,
        /// The panic message.
        message: String,
    },
}

/// How a failed request should be treated by a retrying caller (the router, or
/// any client wrapping the serving tier). Derived from [`ServeError::class`] so
/// every layer agrees on one taxonomy instead of ad-hoc `matches!` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The transport or peer process failed (I/O error, protocol violation,
    /// engine shut down). The request may never have been seen: fail the shard
    /// over and retry elsewhere, and mark the source unhealthy.
    Transport,
    /// The peer is healthy but shed the request under load. Retry elsewhere
    /// (subject to the retry budget) but do **not** mark the source dead —
    /// overload is not failure.
    Overload,
    /// Retrying cannot help: the request itself is bad (unknown model,
    /// malformed input, a model that panics on it), the deadline already
    /// passed, or every alternative is exhausted. Fail fast to the caller.
    Terminal,
}

impl ServeError {
    /// Classify this error for retry/failover decisions.
    pub fn class(&self) -> ErrorClass {
        match self {
            ServeError::Io(_) | ServeError::Protocol(_) | ServeError::EngineStopped => {
                ErrorClass::Transport
            }
            ServeError::Overloaded(_) => ErrorClass::Overload,
            ServeError::UnknownModel { .. }
            | ServeError::Core(_)
            | ServeError::Remote(_)
            | ServeError::NoLiveShards
            | ServeError::DeadlineExceeded(_)
            | ServeError::ModelPanicked { .. } => ErrorClass::Terminal,
        }
    }

    /// Whether a retry (on another shard, or after a backoff) could succeed.
    pub fn is_retryable(&self) -> bool {
        self.class() != ErrorClass::Terminal
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { name, known } => {
                write!(f, "unknown model {name:?}; available: {}", known.join(", "))
            }
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "I/O failure: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
            ServeError::EngineStopped => write!(f, "batch engine stopped"),
            ServeError::NoLiveShards => write!(f, "no live shard can serve the request"),
            ServeError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ServeError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            ServeError::ModelPanicked { model, message } => {
                write!(f, "model {model:?} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mvcore::CoreError> for ServeError {
    fn from(e: mvcore::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::UnknownModel {
            name: "tcca-prod".into(),
            known: vec!["a".into(), "b".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("tcca-prod") && msg.contains("a, b"), "{msg}");
        assert!(ServeError::EngineStopped.to_string().contains("stopped"));
        let e: ServeError = mvcore::CoreError::InvalidInput("x".into()).into();
        assert!(e.to_string().contains("x"));
        assert!(ServeError::Overloaded("q full".into())
            .to_string()
            .contains("overloaded"));
        assert!(ServeError::DeadlineExceeded("late".into())
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn taxonomy_splits_retryable_from_terminal() {
        use std::io;
        let transport = [
            ServeError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "rst")),
            ServeError::Protocol("junk".into()),
            ServeError::EngineStopped,
        ];
        for e in transport {
            assert_eq!(e.class(), ErrorClass::Transport, "{e}");
            assert!(e.is_retryable());
        }
        let overload = ServeError::Overloaded("queue full".into());
        assert_eq!(overload.class(), ErrorClass::Overload);
        assert!(overload.is_retryable());
        let terminal = [
            ServeError::UnknownModel {
                name: "m".into(),
                known: vec![],
            },
            ServeError::Remote("bad input".into()),
            ServeError::NoLiveShards,
            ServeError::DeadlineExceeded("late".into()),
            ServeError::ModelPanicked {
                model: "m".into(),
                message: "boom".into(),
            },
        ];
        for e in terminal {
            assert_eq!(e.class(), ErrorClass::Terminal, "{e}");
            assert!(!e.is_retryable());
        }
    }
}
