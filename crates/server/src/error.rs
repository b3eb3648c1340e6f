//! Server-level errors.

use std::fmt;

use datacell::error::EngineError;

/// Errors raised by `datacelld` — the control plane, session manager and
/// runtime supervision layers.
#[derive(Debug)]
pub enum ServerError {
    /// The underlying DataCell engine rejected an operation.
    Engine(EngineError),
    /// A malformed control-plane command.
    Protocol(String),
    /// Unknown stream/query name.
    Unknown(String),
    /// Name already registered.
    Duplicate(String),
    /// Socket / binding failure.
    Io(String),
    /// The server is shutting down and rejects new work.
    ShuttingDown,
    /// A control verb this daemon does not serve; the message names the
    /// daemon that does.
    Unsupported(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Engine(e) => write!(f, "engine: {e}"),
            ServerError::Protocol(m) => write!(f, "protocol: {m}"),
            ServerError::Unknown(n) => write!(f, "unknown name: {n}"),
            ServerError::Duplicate(n) => write!(f, "duplicate name: {n}"),
            ServerError::Io(m) => write!(f, "io: {m}"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Unsupported(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

/// Server result alias.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            ServerError::Unknown("q".into()).to_string(),
            "unknown name: q"
        );
        assert_eq!(
            ServerError::Protocol("bad".into()).to_string(),
            "protocol: bad"
        );
        let e: ServerError = EngineError::Duplicate("S".into()).into();
        assert_eq!(e.to_string(), "engine: duplicate name: S");
    }
}
