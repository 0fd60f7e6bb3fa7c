use std::error::Error;
use std::fmt;

/// Error type for constructing and manipulating congestion games.
///
/// Every fallible public function in this crate returns `Result<_, GameError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GameError {
    /// A strategy referenced a resource index outside the game's resources.
    UnknownResource {
        /// The offending resource index.
        resource: u32,
        /// Number of resources in the game.
        resources: usize,
    },
    /// A strategy id was out of range.
    UnknownStrategy {
        /// The offending strategy index.
        strategy: u32,
        /// Number of strategies in the game.
        strategies: usize,
    },
    /// A strategy contained no resources.
    EmptyStrategy,
    /// A player class contained no strategies.
    EmptyClass,
    /// The game contains no resources.
    NoResources,
    /// The game contains no player classes.
    NoClasses,
    /// A state's per-strategy counts do not sum to the class sizes.
    CountMismatch {
        /// Class whose counts are inconsistent.
        class: usize,
        /// Expected number of players in this class.
        expected: u64,
        /// Sum of the provided strategy counts.
        found: u64,
    },
    /// A count vector had the wrong length.
    WrongLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// A migration would move more players than currently use the origin.
    InsufficientPlayers {
        /// Origin strategy.
        strategy: u32,
        /// Players available on the origin.
        available: u64,
        /// Players requested to move.
        requested: u64,
    },
    /// A migration crossed player classes.
    CrossClassMigration {
        /// Class of the origin strategy.
        from_class: usize,
        /// Class of the destination strategy.
        to_class: usize,
    },
    /// Adding players would overflow a `u64` player count or load.
    PopulationOverflow {
        /// The count or load before the addition.
        present: u64,
        /// Players to add.
        added: u64,
    },
    /// A numeric parameter was invalid (negative, NaN, out of range, ...).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint.
        message: &'static str,
    },
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::UnknownResource { resource, resources } => write!(
                f,
                "strategy references resource {resource} but the game has only {resources} resources"
            ),
            GameError::UnknownStrategy { strategy, strategies } => write!(
                f,
                "strategy id {strategy} out of range for a game with {strategies} strategies"
            ),
            GameError::EmptyStrategy => write!(f, "strategies must contain at least one resource"),
            GameError::EmptyClass => write!(f, "player classes must offer at least one strategy"),
            GameError::NoResources => write!(f, "congestion games need at least one resource"),
            GameError::NoClasses => write!(f, "congestion games need at least one player class"),
            GameError::CountMismatch { class, expected, found } => write!(
                f,
                "strategy counts of class {class} sum to {found} but the class has {expected} players"
            ),
            GameError::WrongLength { expected, found } => {
                write!(f, "expected a vector of length {expected}, got {found}")
            }
            GameError::InsufficientPlayers { strategy, available, requested } => write!(
                f,
                "cannot move {requested} players away from strategy {strategy}: only {available} present"
            ),
            GameError::CrossClassMigration { from_class, to_class } => write!(
                f,
                "players cannot migrate across classes (from class {from_class} to class {to_class})"
            ),
            GameError::PopulationOverflow { present, added } => write!(
                f,
                "cannot add {added} players to {present}: the player count would overflow u64"
            ),
            GameError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl Error for GameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            GameError::UnknownResource { resource: 3, resources: 2 },
            GameError::EmptyStrategy,
            GameError::NoResources,
            GameError::CountMismatch { class: 0, expected: 4, found: 5 },
            GameError::WrongLength { expected: 2, found: 3 },
            GameError::InsufficientPlayers { strategy: 1, available: 0, requested: 2 },
            GameError::CrossClassMigration { from_class: 0, to_class: 1 },
            GameError::PopulationOverflow { present: 2000, added: u64::MAX },
            GameError::InvalidParameter { name: "lambda", message: "must be in (0, 1]" },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            let first = s.chars().next().unwrap();
            assert!(first.is_lowercase(), "error message should start lowercase: {s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GameError>();
    }
}
