//! Actors and the organizational hierarchy.
//!
//! In the paper (Section 5.1) a policy *subject* is an **actor**
//! "reflecting the particular hierarchical structure of the
//! organization": an actor can be a top-level organization
//! (`Hospital S. Maria`) or a unit inside it (`Laboratory`,
//! `Dermatology`). A policy granted to an organization implicitly covers
//! its units, so policy matching needs an ancestor test — provided here
//! by [`ActorRegistry::is_same_or_descendant`].

use std::collections::HashMap;
use std::fmt;

use crate::error::{CssError, CssResult};
use crate::id::ActorId;

/// The kind of participant an actor represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    /// A top-level organization (hospital, municipality, province, company).
    Organization,
    /// A department / division / operating unit inside an organization.
    OrganizationalUnit,
    /// A functional role inside a unit (e.g. *family doctor*).
    Role,
}

impl fmt::Display for ActorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActorKind::Organization => "organization",
            ActorKind::OrganizationalUnit => "organizational-unit",
            ActorKind::Role => "role",
        };
        f.write_str(s)
    }
}

/// A participant in the CSS platform: data producer, data consumer, or
/// an organizational unit of either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Actor {
    /// Unique identifier of the actor.
    pub id: ActorId,
    /// Human-readable name (e.g. `"Hospital S. Maria"`).
    pub name: String,
    /// What level of the hierarchy this actor sits at.
    pub kind: ActorKind,
    /// The enclosing actor, if any. `None` for top-level organizations.
    pub parent: Option<ActorId>,
}

impl Actor {
    /// Convenience constructor for a top-level organization.
    pub fn organization(id: ActorId, name: impl Into<String>) -> Self {
        Actor {
            id,
            name: name.into(),
            kind: ActorKind::Organization,
            parent: None,
        }
    }

    /// Convenience constructor for a unit nested under `parent`.
    pub fn unit(id: ActorId, name: impl Into<String>, parent: ActorId) -> Self {
        Actor {
            id,
            name: name.into(),
            kind: ActorKind::OrganizationalUnit,
            parent: Some(parent),
        }
    }

    /// Convenience constructor for a role nested under `parent`.
    pub fn role(id: ActorId, name: impl Into<String>, parent: ActorId) -> Self {
        Actor {
            id,
            name: name.into(),
            kind: ActorKind::Role,
            parent: Some(parent),
        }
    }
}

/// Registry of all actors known to the platform, with hierarchy queries.
///
/// The registry is the authority for the subject side of policy matching:
/// "can actor *X* be granted by a policy written for actor *Y*?" is
/// answered by walking the parent chain.
#[derive(Debug, Default, Clone)]
pub struct ActorRegistry {
    actors: HashMap<ActorId, Actor>,
}

impl ActorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an actor. The parent, if declared, must already exist.
    ///
    /// Returns an error on duplicate ids, unknown parents, or cycles
    /// (an actor cannot be its own ancestor).
    pub fn register(&mut self, actor: Actor) -> CssResult<()> {
        if self.actors.contains_key(&actor.id) {
            return Err(CssError::AlreadyExists(format!(
                "actor {} already registered",
                actor.id
            )));
        }
        if let Some(parent) = actor.parent {
            if !self.actors.contains_key(&parent) {
                return Err(CssError::NotFound(format!(
                    "parent actor {parent} of {} not registered",
                    actor.name
                )));
            }
            if parent == actor.id {
                return Err(CssError::Invalid("actor cannot be its own parent".into()));
            }
        }
        self.actors.insert(actor.id, actor);
        Ok(())
    }

    /// Look up an actor by id.
    pub fn get(&self, id: ActorId) -> Option<&Actor> {
        self.actors.get(&id)
    }

    /// Number of registered actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Iterate over all registered actors (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Actor> {
        self.actors.values()
    }

    /// The chain of ancestors of `id`, nearest first, not including `id`.
    pub fn ancestors(&self, id: ActorId) -> Vec<ActorId> {
        self.lineage(id).skip(1).collect()
    }

    /// `id` itself, then its ancestors nearest first: every actor whose
    /// grant covers `id`. Walks the parent links without collecting
    /// them; an unknown `id` is its own whole lineage.
    pub fn lineage(&self, id: ActorId) -> impl Iterator<Item = ActorId> + '_ {
        std::iter::successors(Some(id), |cur| self.actors.get(cur).and_then(|a| a.parent))
    }

    /// The top-level organization enclosing `id` (or `id` itself if it is
    /// top-level). `None` if the actor is unknown.
    pub fn organization_of(&self, id: ActorId) -> Option<ActorId> {
        let mut cur = id;
        loop {
            let actor = self.actors.get(&cur)?;
            match actor.parent {
                Some(p) => cur = p,
                None => return Some(cur),
            }
        }
    }

    /// Hierarchical subject test used by policy matching: `true` when
    /// `candidate` is `granted` itself or sits anywhere below it.
    ///
    /// A policy written for `Hospital S. Maria` therefore also covers
    /// requests issued by its `Laboratory`.
    pub fn is_same_or_descendant(&self, candidate: ActorId, granted: ActorId) -> bool {
        self.lineage(candidate).any(|link| link == granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ActorRegistry, ActorId, ActorId, ActorId, ActorId) {
        let mut reg = ActorRegistry::new();
        let hospital = ActorId(1);
        let lab = ActorId(2);
        let derma = ActorId(3);
        let muni = ActorId(4);
        reg.register(Actor::organization(hospital, "Hospital S. Maria"))
            .unwrap();
        reg.register(Actor::unit(lab, "Laboratory", hospital))
            .unwrap();
        reg.register(Actor::unit(derma, "Dermatology", hospital))
            .unwrap();
        reg.register(Actor::organization(muni, "Municipality of Trento"))
            .unwrap();
        (reg, hospital, lab, derma, muni)
    }

    #[test]
    fn descendant_matches_ancestor_grant() {
        let (reg, hospital, lab, _, muni) = sample();
        assert!(reg.is_same_or_descendant(lab, hospital));
        assert!(reg.is_same_or_descendant(hospital, hospital));
        assert!(!reg.is_same_or_descendant(hospital, lab));
        assert!(!reg.is_same_or_descendant(muni, hospital));
    }

    #[test]
    fn ancestors_nearest_first() {
        let mut reg = ActorRegistry::new();
        let org = ActorId(1);
        let unit = ActorId(2);
        let role = ActorId(3);
        reg.register(Actor::organization(org, "Org")).unwrap();
        reg.register(Actor::unit(unit, "Unit", org)).unwrap();
        reg.register(Actor::role(role, "Family Doctor", unit))
            .unwrap();
        assert_eq!(reg.ancestors(role), vec![unit, org]);
        assert_eq!(reg.organization_of(role), Some(org));
    }

    #[test]
    fn hierarchy_test_walks_the_lineage_and_never_upward() {
        let mut reg = ActorRegistry::new();
        let (org, unit, role, other) = (ActorId(1), ActorId(2), ActorId(3), ActorId(4));
        reg.register(Actor::organization(org, "Org")).unwrap();
        reg.register(Actor::unit(unit, "Unit", org)).unwrap();
        reg.register(Actor::role(role, "Nurse", unit)).unwrap();
        reg.register(Actor::organization(other, "Other")).unwrap();
        assert_eq!(reg.lineage(role).collect::<Vec<_>>(), vec![role, unit, org]);
        for granted in [role, unit, org] {
            assert!(reg.is_same_or_descendant(role, granted));
        }
        // A grant never flows upward, nor across to another organization.
        assert!(!reg.is_same_or_descendant(unit, role));
        assert!(!reg.is_same_or_descendant(org, role));
        assert!(!reg.is_same_or_descendant(org, unit));
        assert!(!reg.is_same_or_descendant(role, other));
        // An unknown actor is covered by a grant to itself, and only by it.
        let ghost = ActorId(99);
        assert_eq!(reg.lineage(ghost).collect::<Vec<_>>(), vec![ghost]);
        assert!(reg.is_same_or_descendant(ghost, ghost));
        assert!(!reg.is_same_or_descendant(ghost, org));
        assert!(!reg.is_same_or_descendant(org, ghost));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (mut reg, hospital, ..) = sample();
        let err = reg
            .register(Actor::organization(hospital, "Other"))
            .unwrap_err();
        assert!(matches!(err, CssError::AlreadyExists(_)));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut reg = ActorRegistry::new();
        let err = reg
            .register(Actor::unit(ActorId(9), "Orphan", ActorId(77)))
            .unwrap_err();
        assert!(matches!(err, CssError::NotFound(_)));
    }

    #[test]
    fn self_parent_rejected() {
        let mut reg = ActorRegistry::new();
        reg.register(Actor::organization(ActorId(1), "Org"))
            .unwrap();
        // An actor listing itself as parent must be rejected even though
        // the id exists by then.
        let mut bad = Actor::unit(ActorId(1), "Loop", ActorId(1));
        bad.id = ActorId(1);
        let err = reg.register(bad).unwrap_err();
        assert!(matches!(
            err,
            CssError::AlreadyExists(_) | CssError::Invalid(_)
        ));
    }

    #[test]
    fn organization_of_unknown_is_none() {
        let (reg, ..) = sample();
        assert_eq!(reg.organization_of(ActorId(999)), None);
    }
}
