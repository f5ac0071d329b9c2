//! The css-sim Trentino world, rebuilt generically over any
//! [`BackendProvider`] through the public `CssPlatform` API only
//! (`css_sim::Scenario` is `MemoryProvider`-only).
//!
//! The world is fixed: organisations, the seven event classes, the
//! policy matrix and the citizens never depend on `--seed`. Every
//! policy is also kept as a [`Grant`] row — the table the oracle's
//! reference decision evaluates.

use std::sync::Arc;

use css_core::{BackendProvider, ConsumerHandle, CssPlatform, ProducerHandle, Role, Subscription};
use css_event::EventSchema;
use css_sim::{Scenario, ScenarioConfig};
use css_types::{
    ActorId, CssError, CssResult, Duration, EventTypeId, PersonId, PersonIdentity, Purpose,
    SimClock, Timestamp,
};

use crate::workload::{Workload, SHARDS};

/// Platform time at the start of set-up (2010-01-01, as in css-sim).
pub const T0: Timestamp = Timestamp(1_262_304_000_000);

/// Hierarchy size for `access_churn`: 4 orgs × 3 units × 16 roles
/// = 208 requesting actors.
const H_ORGS: usize = 4;
const H_UNITS: usize = 3;
const H_ROLES: usize = 16;
/// Classes (by index) the hierarchy holds standing policies on; the
/// remaining classes are reachable only through churned policies.
const H_CLASSES: usize = 4;

/// One event class of the world.
pub struct Class {
    /// The class id.
    pub ty: EventTypeId,
    /// Index into [`World::producers`].
    pub producer: usize,
    /// The declaring producer's actor id.
    pub producer_id: ActorId,
    /// Declared field names, in schema order (bit `i` of a field mask
    /// is `fields[i]`).
    pub fields: Vec<String>,
    /// Mask of the fields not marked sensitive.
    pub plain_mask: u16,
    /// Notification description used for every event of the class.
    pub description: String,
    /// The declared schema.
    pub schema: EventSchema,
}

impl Class {
    /// Mask with every declared field set.
    pub fn all_mask(&self) -> u16 {
        (1u16 << self.fields.len()) - 1
    }

    /// The field names a mask selects.
    pub fn names(&self, mask: u16) -> impl Iterator<Item = &str> {
        self.fields
            .iter()
            .enumerate()
            .filter(move |(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| f.as_str())
    }
}

/// A consumer-side actor the generator can act as.
pub struct Requester<P: BackendProvider> {
    /// The actor.
    pub id: ActorId,
    /// The actor followed by its ancestors (unit, organisation).
    pub chain: Vec<ActorId>,
    /// Its consumer handle.
    pub handle: ConsumerHandle<P>,
    /// A role of the `access_churn` hierarchy (partitioned between
    /// client threads; everything else is shared).
    pub is_role: bool,
}

/// One installed policy, as the oracle sees it (Definition 2 plus the
/// validity window of Fig. 7).
#[derive(Debug, Clone)]
pub struct Grant {
    /// The actor the policy is granted to.
    pub actor: ActorId,
    /// Class index.
    pub class: usize,
    /// Admissible purposes.
    pub purposes: Vec<Purpose>,
    /// Released fields (mask over the class's fields).
    pub fields: u16,
    /// End of validity, if any.
    pub not_after: Option<Timestamp>,
    /// Revoked by its producer.
    pub revoked: bool,
}

/// A fully wired platform plus everything the generator and the oracle
/// need to know about it.
pub struct World<P: BackendProvider> {
    /// The platform under test.
    pub platform: CssPlatform<P>,
    /// The simulated clock driving it (1 ms per operation).
    pub clock: SimClock,
    /// The seven event classes.
    pub classes: Vec<Class>,
    /// One handle per producer organisation.
    pub producers: Vec<ProducerHandle<P>>,
    /// Every consumer-side actor.
    pub requesters: Vec<Requester<P>>,
    /// Per class: the live subscriptions, sorted by actor id — the
    /// order of `PublishReceipt::notified`.
    pub subs: Vec<Vec<(ActorId, Subscription)>>,
    /// The citizens; the first fifth are "in care".
    pub persons: Vec<PersonIdentity>,
    /// The standing policy matrix.
    pub grants: Vec<Grant>,
    /// `(audit_len, index_len)` right after the platform was assembled,
    /// before any actor was registered: what a reopened directory held.
    pub opened_lens: (usize, usize),
    /// Audit records once building finished (contracts, policies,
    /// subscriptions) — the oracle's starting point.
    pub audit_base: usize,
}

/// Whether [`build`] creates the world or re-attaches to one that is
/// already on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Install the policy matrix and subscribe.
    Fresh,
    /// The restart path: same actors and classes, policies restored
    /// with `reload_policies`, no new subscriptions.
    Reopen,
}

struct BaseOrgs {
    hospital: ActorId,
    municipality: ActorId,
    telecare: ActorId,
    welfare: ActorId,
    elderly_office: ActorId,
    governance: ActorId,
    doctors: Vec<ActorId>,
}

/// Who a row of the base policy matrix is granted to.
#[derive(Clone, Copy)]
enum Who {
    Doctors,
    Welfare,
    ElderlyOffice,
    Governance,
    Telecare,
}

/// A row of the base policy matrix: class code, fields (`None` = all),
/// grantee, purposes.
type MatrixRow = (
    &'static str,
    Option<&'static [&'static str]>,
    Who,
    &'static [Purpose],
);

/// The css-sim policy matrix (`Scenario::install_policies`), as data.
const MATRIX: &[MatrixRow] = {
    use Purpose::*;
    const CLINICAL: &[Purpose] = &[HealthcareTreatment, Emergency];
    &[
        ("blood-test", None, Who::Doctors, CLINICAL),
        ("radiology-report", None, Who::Doctors, CLINICAL),
        ("hospital-discharge", None, Who::Doctors, CLINICAL),
        ("telecare-alarm", None, Who::Doctors, CLINICAL),
        ("home-care-service-event", None, Who::Doctors, CLINICAL),
        (
            "hospital-discharge",
            Some(&["PatientId", "Ward", "DischargedAt", "CarePlan"]),
            Who::Welfare,
            &[SocialAssistance],
        ),
        (
            "home-care-service-event",
            None,
            Who::Welfare,
            &[SocialAssistance, ServiceAssessment],
        ),
        (
            "telecare-alarm",
            Some(&["PatientId", "AlarmKind"]),
            Who::Welfare,
            &[SocialAssistance],
        ),
        (
            "autonomy-assessment",
            None,
            Who::ElderlyOffice,
            &[SocialAssistance],
        ),
        (
            "meal-delivery",
            None,
            Who::Welfare,
            &[SocialAssistance, ServiceAssessment],
        ),
        (
            "autonomy-assessment",
            Some(&["Age", "Sex", "AutonomyScore"]),
            Who::Governance,
            &[StatisticalAnalysis],
        ),
        (
            "home-care-service-event",
            Some(&["PatientId", "Service", "DurationMinutes"]),
            Who::Governance,
            &[Reimbursement, ServiceAssessment],
        ),
        (
            "meal-delivery",
            Some(&["PatientId", "MealType"]),
            Who::Governance,
            &[Reimbursement, ServiceAssessment],
        ),
        (
            "hospital-discharge",
            Some(&["PatientId", "DischargedAt"]),
            Who::Telecare,
            &[SocialAssistance],
        ),
    ]
};

/// The schemas css-sim declares, re-stamped with this world's producer
/// ids (css-sim keeps its schema table private; its catalog is public).
fn sim_schemas(orgs: &BaseOrgs) -> CssResult<Vec<EventSchema>> {
    let sim = Scenario::build(ScenarioConfig {
        persons: 0,
        family_doctors: 1,
        seed: 0,
    })?;
    let catalog = sim.platform.consumer(sim.orgs.governance)?;
    css_sim::scenario::types::all()
        .iter()
        .map(|ty| {
            let mut schema = catalog.class_schema(ty)?;
            let owner = sim.producer_of(ty);
            schema.producer = if owner == sim.orgs.hospital {
                orgs.hospital
            } else if owner == sim.orgs.telecare {
                orgs.telecare
            } else if owner == sim.orgs.welfare {
                orgs.welfare
            } else {
                orgs.municipality
            };
            Ok(schema)
        })
        .collect()
}

/// The person id of citizen `i` (index into [`World::persons`]).
pub fn person_id(i: u32) -> PersonId {
    PersonId(i as u64 + 1)
}

fn person(i: usize) -> PersonIdentity {
    const GIVEN: [&str; 10] = [
        "Mario", "Anna", "Luca", "Giulia", "Franco", "Elena", "Paolo", "Chiara", "Sergio", "Rita",
    ];
    const FAMILY: [&str; 10] = [
        "Rossi", "Bianchi", "Ferrari", "Russo", "Gallo", "Conti", "Ricci", "Marino", "Greco",
        "Bruno",
    ];
    PersonIdentity {
        id: person_id(i as u32),
        fiscal_code: format!("TRNCSS{:010}", i as u64 * 7_919 % 10_000_000_000),
        name: GIVEN[i % GIVEN.len()].to_string(),
        surname: FAMILY[i / GIVEN.len() % FAMILY.len()].to_string(),
    }
}

/// Build (or re-attach to) the world of `workload` on `provider`.
///
/// `seconds` sizes the run the world is built for: the hierarchy's
/// expiring policies end at [`Workload::expiry_offset_ms`] after set-up.
pub fn build<P: BackendProvider>(
    workload: &Workload,
    provider: P,
    mode: Mode,
    seconds: u64,
) -> CssResult<World<P>> {
    let clock = SimClock::starting_at(T0);
    let mut platform = CssPlatform::builder()
        .provider(provider)
        .clock(Arc::new(clock.clone()))
        .shards(SHARDS)
        .build()?;
    let opened_lens = {
        let controller = platform.controller();
        (controller.audit_len(), controller.index_len())
    };

    // Organisations, in css-sim's order.
    let hospital = platform.register_organization("Ospedale S. Chiara")?;
    platform.register_unit(hospital, "Laboratory")?;
    platform.register_unit(hospital, "Radiology")?;
    let municipality = platform.register_organization("Municipality of Trento")?;
    let telecare = platform.register_organization("Telecare Trentino S.p.A.")?;
    let welfare = platform.register_organization("Social Welfare Department")?;
    let elderly_office = platform.register_unit(welfare, "Elderly Care Office")?;
    let governance = platform.register_organization("Provincia Autonoma di Trento")?;
    let doctors = (1..=3)
        .map(|i| platform.register_organization(&format!("Family Doctor {i}")))
        .collect::<CssResult<Vec<_>>>()?;
    let orgs = BaseOrgs {
        hospital,
        municipality,
        telecare,
        welfare,
        elderly_office,
        governance,
        doctors,
    };
    let producer_ids = [hospital, municipality, telecare, welfare];
    for p in producer_ids {
        platform.join(p, Role::Both)?;
    }
    for c in orgs.doctors.iter().copied().chain([governance]) {
        platform.join(c, Role::Consumer)?;
    }

    // The access_churn hierarchy: org → unit → role.
    let mut h_orgs = Vec::new();
    let mut h_units = Vec::new();
    let mut h_roles = Vec::new();
    if workload.hierarchy {
        for o in 0..H_ORGS {
            let org = platform.register_organization(&format!("Care Cooperative {o}"))?;
            platform.join(org, Role::Consumer)?;
            h_orgs.push(org);
            for u in 0..H_UNITS {
                let unit = platform.register_unit(org, &format!("District {o}.{u}"))?;
                h_units.push((unit, org));
                for r in 0..H_ROLES {
                    let role = platform.register_role(unit, &format!("Case worker {o}.{u}.{r}"))?;
                    h_roles.push((role, unit, org));
                }
            }
        }
    }

    // Event classes.
    let producers = producer_ids
        .iter()
        .map(|p| platform.producer(*p))
        .collect::<CssResult<Vec<_>>>()?;
    let mut classes = Vec::new();
    for schema in sim_schemas(&orgs)? {
        let producer = producer_ids
            .iter()
            .position(|p| *p == schema.producer)
            .expect("css-sim classes belong to the four producers");
        producers[producer].declare(&schema, None)?;
        let plain_mask = schema
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.sensitive)
            .fold(0u16, |m, (i, _)| m | 1 << i);
        classes.push(Class {
            description: format!("{} occurred", schema.id.code()),
            ty: schema.id.clone(),
            producer,
            producer_id: schema.producer,
            fields: schema.fields.iter().map(|f| f.name.clone()).collect(),
            plain_mask,
            schema,
        });
    }

    // The policy matrix, as rows first.
    let mut grants = Vec::new();
    for (code, fields, who, purposes) in MATRIX {
        let class = classes
            .iter()
            .position(|c| c.ty.code() == *code)
            .expect("matrix names css-sim classes");
        let mask = match fields {
            None => classes[class].all_mask(),
            Some(names) => names.iter().fold(0u16, |m, n| {
                let bit = classes[class]
                    .fields
                    .iter()
                    .position(|f| f == n)
                    .expect("matrix names declared fields");
                m | 1 << bit
            }),
        };
        let grantees: &[ActorId] = match who {
            Who::Doctors => &orgs.doctors,
            Who::Welfare => &[orgs.welfare],
            Who::ElderlyOffice => &[orgs.elderly_office],
            Who::Governance => &[orgs.governance],
            Who::Telecare => &[orgs.telecare],
        };
        for actor in grantees {
            grants.push(Grant {
                actor: *actor,
                class,
                purposes: purposes.to_vec(),
                fields: mask,
                not_after: None,
                revoked: false,
            });
        }
    }
    // Hierarchy policies at mixed levels: notification-only at the
    // organisation, plain fields at the unit, everything at the role;
    // every fourth role's first policy ends inside an open-loop segment.
    for org in &h_orgs {
        for class in 0..H_CLASSES {
            grants.push(Grant {
                actor: *org,
                class,
                purposes: vec![Purpose::Administration],
                fields: 0,
                not_after: None,
                revoked: false,
            });
        }
    }
    for (u, (unit, _)) in h_units.iter().enumerate() {
        for j in 0..2 {
            let class = (u + j) % H_CLASSES;
            grants.push(Grant {
                actor: *unit,
                class,
                purposes: vec![Purpose::SocialAssistance, Purpose::ServiceAssessment],
                fields: classes[class].plain_mask,
                not_after: None,
                revoked: false,
            });
        }
    }
    let expiring = h_roles.len().div_ceil(4);
    for (r, (role, _, _)) in h_roles.iter().enumerate() {
        for j in 0..2 {
            let class = (r + j) % H_CLASSES;
            let not_after = (j == 0 && r % 4 == 0).then(|| {
                let offset = workload.expiry_offset_ms(seconds, r / 4, expiring);
                Timestamp(T0.0 + workload.preload_for(seconds) as u64 + offset)
            });
            grants.push(Grant {
                actor: *role,
                class,
                purposes: vec![Purpose::HealthcareTreatment],
                fields: classes[class].all_mask(),
                not_after,
                revoked: false,
            });
        }
    }

    match mode {
        Mode::Fresh => {
            for (i, g) in grants.iter().enumerate() {
                let class = &classes[g.class];
                let mut wizard = producers[class.producer]
                    .policy_wizard(&class.ty)?
                    .select_fields(class.names(g.fields))
                    .map_err(CssError::from)?
                    .grant_to([g.actor])
                    .map_err(CssError::from)?
                    .for_purposes(g.purposes.iter().cloned())
                    .labeled(format!("matrix-{i}"), "macrobench policy matrix");
                if let Some(until) = g.not_after {
                    wizard = wizard.valid_until(until);
                }
                wizard.save()?;
            }
        }
        Mode::Reopen => {
            platform.reload_policies()?;
        }
    }

    // Requesters: every base consumer, then the hierarchy.
    let mut requesters = Vec::new();
    let mut add = |id: ActorId, chain: Vec<ActorId>, is_role: bool| -> CssResult<()> {
        requesters.push(Requester {
            id,
            chain,
            handle: platform.consumer(id)?,
            is_role,
        });
        Ok(())
    };
    for d in &orgs.doctors {
        add(*d, vec![*d], false)?;
    }
    add(welfare, vec![welfare], false)?;
    add(elderly_office, vec![elderly_office, welfare], false)?;
    add(governance, vec![governance], false)?;
    add(telecare, vec![telecare], false)?;
    for org in &h_orgs {
        add(*org, vec![*org], false)?;
    }
    for (unit, org) in &h_units {
        add(*unit, vec![*unit, *org], false)?;
    }
    for (role, unit, org) in &h_roles {
        add(*role, vec![*role, *unit, *org], true)?;
    }

    // Subscriptions: every base consumer and hierarchy organisation
    // subscribes to each class it holds a direct policy on.
    let mut subs: Vec<Vec<(ActorId, Subscription)>> = classes.iter().map(|_| Vec::new()).collect();
    if mode == Mode::Fresh {
        let h_lower: Vec<ActorId> = h_units
            .iter()
            .map(|(u, _)| *u)
            .chain(h_roles.iter().map(|(r, _, _)| *r))
            .collect();
        for g in &grants {
            if h_lower.contains(&g.actor) || subs[g.class].iter().any(|(a, _)| *a == g.actor) {
                continue;
            }
            let requester = requesters
                .iter()
                .find(|r| r.id == g.actor)
                .expect("every grantee is a requester");
            let sub = requester.handle.subscribe(&classes[g.class].ty)?;
            subs[g.class].push((g.actor, sub));
        }
        for per_class in &mut subs {
            per_class.sort_by_key(|(a, _)| *a);
        }
    }

    let persons = (0..workload.citizens).map(person).collect();
    let audit_base = platform.controller().audit_len();
    Ok(World {
        platform,
        clock,
        classes,
        producers,
        requesters,
        subs,
        persons,
        grants,
        opened_lens,
        audit_base,
    })
}

impl<P: BackendProvider> World<P> {
    /// Advance platform time by the 1 ms every operation takes and
    /// return the new instant.
    pub fn tick(&self) -> Timestamp {
        self.clock.advance(Duration(1))
    }

    /// The actors notified of every event of `class`, sorted — what
    /// `PublishReceipt::notified` must equal.
    pub fn subscribers(&self, class: usize) -> impl Iterator<Item = ActorId> + '_ {
        self.subs[class].iter().map(|(a, _)| *a)
    }

    /// A stable digest of the world's shape (classes, grants,
    /// requesters, citizens) for `--dry-run`.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for c in &self.classes {
            h.write(
                format!("{}|{}|{:?}|{}", c.ty, c.producer_id, c.fields, c.plain_mask).as_bytes(),
            );
        }
        for g in &self.grants {
            h.write(format!("{g:?}").as_bytes());
        }
        for r in &self.requesters {
            h.write(format!("{:?}", r.chain).as_bytes());
        }
        for (class, subs) in self.subs.iter().enumerate() {
            h.write(
                format!(
                    "{class}:{:?}",
                    subs.iter().map(|(a, _)| *a).collect::<Vec<_>>()
                )
                .as_bytes(),
            );
        }
        for p in &self.persons {
            h.write(&p.to_bytes());
        }
        h.finish()
    }
}
