//! Participation contracts.
//!
//! "The participation of an entity to the architecture (as data producer
//! or data consumer) is conditioned to the definition of precise
//! contractual agreements with the data controller." (Section 5)

use std::collections::HashMap;

use css_types::{ActorId, CssError, CssResult, Timestamp};

/// The role(s) a participant signed up for: the capacity it joins the
/// platform in (`css_core::Role` is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticipantRole {
    /// May declare event classes and publish events.
    Producer,
    /// May subscribe, inquire the index, and request details.
    Consumer,
    /// Both roles.
    Both,
}

impl ParticipantRole {
    /// Whether this role allows producing.
    pub fn can_produce(self) -> bool {
        matches!(self, ParticipantRole::Producer | ParticipantRole::Both)
    }

    /// Whether this role allows consuming.
    pub fn can_consume(self) -> bool {
        matches!(self, ParticipantRole::Consumer | ParticipantRole::Both)
    }

    /// The role allowing what either role allows.
    fn widened(self, other: ParticipantRole) -> ParticipantRole {
        if self == other {
            self
        } else {
            ParticipantRole::Both
        }
    }
}

/// A signed contract between a participant and the data controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticipantContract {
    /// The participant (a top-level organization).
    pub actor: ActorId,
    /// Granted role.
    pub role: ParticipantRole,
    /// When the contract was signed.
    pub signed_at: Timestamp,
}

/// Registry of signed contracts, consulted before any platform action.
#[derive(Debug, Default)]
pub struct ContractRegistry {
    contracts: HashMap<ActorId, ParticipantContract>,
}

impl ContractRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a signed contract. Re-signing widens the role: a producer
    /// that signs again as a consumer holds both.
    pub fn sign(&mut self, mut contract: ParticipantContract) {
        if let Some(held) = self.contracts.get(&contract.actor) {
            contract.role = held.role.widened(contract.role);
        }
        self.contracts.insert(contract.actor, contract);
    }

    /// The contract of an actor, if any.
    pub fn get(&self, actor: ActorId) -> Option<&ParticipantContract> {
        self.contracts.get(&actor)
    }

    /// Error unless `actor` has a contract permitting production.
    pub fn require_producer(&self, actor: ActorId) -> CssResult<()> {
        match self.contracts.get(&actor) {
            Some(c) if c.role.can_produce() => Ok(()),
            Some(_) => Err(CssError::NoContract(format!(
                "{actor} has no producer contract"
            ))),
            None => Err(CssError::NoContract(format!("{actor} has no contract"))),
        }
    }

    /// Error unless `actor` has a contract permitting consumption.
    pub fn require_consumer(&self, actor: ActorId) -> CssResult<()> {
        match self.contracts.get(&actor) {
            Some(c) if c.role.can_consume() => Ok(()),
            Some(_) => Err(CssError::NoContract(format!(
                "{actor} has no consumer contract"
            ))),
            None => Err(CssError::NoContract(format!("{actor} has no contract"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles() {
        assert!(ParticipantRole::Producer.can_produce());
        assert!(!ParticipantRole::Producer.can_consume());
        assert!(ParticipantRole::Both.can_produce() && ParticipantRole::Both.can_consume());
        use ParticipantRole::{Both, Consumer, Producer};
        for (held, signed, widened) in [
            (Producer, Producer, Producer),
            (Producer, Consumer, Both),
            (Consumer, Producer, Both),
            (Consumer, Consumer, Consumer),
            (Both, Producer, Both),
            (Consumer, Both, Both),
        ] {
            assert_eq!(held.widened(signed), widened, "{held:?} + {signed:?}");
        }
    }

    #[test]
    fn require_checks() {
        let mut reg = ContractRegistry::new();
        assert!(reg.require_producer(ActorId(1)).is_err());
        reg.sign(ParticipantContract {
            actor: ActorId(1),
            role: ParticipantRole::Consumer,
            signed_at: Timestamp(0),
        });
        assert!(reg.require_producer(ActorId(1)).is_err());
        assert!(reg.require_consumer(ActorId(1)).is_ok());
        // Upgrade.
        reg.sign(ParticipantContract {
            actor: ActorId(1),
            role: ParticipantRole::Both,
            signed_at: Timestamp(1),
        });
        assert!(reg.require_producer(ActorId(1)).is_ok());
        assert_eq!(reg.get(ActorId(1)).unwrap().role, ParticipantRole::Both);
    }
}
