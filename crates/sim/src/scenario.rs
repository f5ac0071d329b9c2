//! The synthetic Trentino scenario.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use css_core::{CssPlatform, MemoryProvider, Role};
use css_event::{EventSchema, FieldDef, FieldKind};
use css_types::{
    ActorId, CssResult, EventTypeId, PersonId, PersonIdentity, Purpose, SimClock, Timestamp,
};

/// Identifiers of the scenario's organizations.
#[derive(Debug, Clone)]
pub struct Orgs {
    /// S. Chiara hospital (producer of clinical events).
    pub hospital: ActorId,
    /// Laboratory unit inside the hospital.
    pub laboratory: ActorId,
    /// Radiology unit inside the hospital.
    pub radiology: ActorId,
    /// Municipality of Trento (producer of meal-delivery events).
    pub municipality: ActorId,
    /// Private telecare company (producer of telecare and home-care events).
    pub telecare: ActorId,
    /// Social welfare department (producer of autonomy assessments,
    /// consumer of the social profile).
    pub welfare: ActorId,
    /// Elderly-care office inside the welfare department.
    pub elderly_office: ActorId,
    /// Provincial governance (statistics / reimbursement consumer).
    pub governance: ActorId,
    /// Family doctors (healthcare consumers).
    pub family_doctors: Vec<ActorId>,
}

/// Scenario sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Number of citizens in care.
    pub persons: usize,
    /// Number of family doctors.
    pub family_doctors: usize,
    /// RNG seed for person generation.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            persons: 50,
            family_doctors: 3,
            seed: 7,
        }
    }
}

/// A fully wired platform plus the population it serves.
pub struct Scenario {
    /// The assembled platform.
    pub platform: CssPlatform<MemoryProvider>,
    /// The simulated clock driving the platform.
    pub clock: SimClock,
    /// Organization ids.
    pub orgs: Orgs,
    /// The citizens.
    pub persons: Vec<PersonIdentity>,
}

/// Event type codes used by the scenario.
pub mod types {
    use css_types::EventTypeId;

    /// Laboratory blood test (hospital).
    pub fn blood_test() -> EventTypeId {
        EventTypeId::v1("blood-test")
    }
    /// Radiology report (hospital).
    pub fn radiology_report() -> EventTypeId {
        EventTypeId::v1("radiology-report")
    }
    /// Hospital discharge (hospital).
    pub fn discharge() -> EventTypeId {
        EventTypeId::v1("hospital-discharge")
    }
    /// Home care service delivered (telecare company).
    pub fn home_care() -> EventTypeId {
        EventTypeId::v1("home-care-service-event")
    }
    /// Telecare alarm (telecare company).
    pub fn telecare_alarm() -> EventTypeId {
        EventTypeId::v1("telecare-alarm")
    }
    /// Autonomy assessment (social welfare).
    pub fn autonomy() -> EventTypeId {
        EventTypeId::v1("autonomy-assessment")
    }
    /// Meal delivered at home (municipality).
    pub fn meal_delivery() -> EventTypeId {
        EventTypeId::v1("meal-delivery")
    }

    /// All scenario event types.
    pub fn all() -> Vec<EventTypeId> {
        vec![
            blood_test(),
            radiology_report(),
            discharge(),
            home_care(),
            telecare_alarm(),
            autonomy(),
            meal_delivery(),
        ]
    }
}

fn person_fields() -> Vec<FieldDef> {
    vec![FieldDef::required("PatientId", FieldKind::Integer)]
}

fn schemas(orgs: &Orgs) -> Vec<(EventSchema, &'static str)> {
    let mut blood = EventSchema::new(types::blood_test(), "Blood Test", orgs.hospital);
    for f in person_fields() {
        blood = blood.field(f);
    }
    let blood = blood
        .field(FieldDef::required("CollectedAt", FieldKind::DateTime))
        .field(
            FieldDef::required(
                "Result",
                FieldKind::Code(vec!["negative".into(), "positive".into()]),
            )
            .sensitive(),
        )
        .field(FieldDef::optional("Hemoglobin", FieldKind::Decimal).sensitive())
        .field(FieldDef::optional("HivResult", FieldKind::Text).sensitive());

    let mut radio = EventSchema::new(types::radiology_report(), "Radiology Report", orgs.hospital);
    for f in person_fields() {
        radio = radio.field(f);
    }
    let radio = radio
        .field(FieldDef::required(
            "Modality",
            FieldKind::Code(vec!["xray".into(), "ct".into(), "mri".into()]),
        ))
        .field(FieldDef::required("Report", FieldKind::Text).sensitive());

    let mut disch = EventSchema::new(types::discharge(), "Hospital Discharge", orgs.hospital);
    for f in person_fields() {
        disch = disch.field(f);
    }
    let disch = disch
        .field(FieldDef::required("Ward", FieldKind::Text))
        .field(FieldDef::required("DischargedAt", FieldKind::DateTime))
        .field(FieldDef::optional("Diagnosis", FieldKind::Text).sensitive())
        .field(FieldDef::optional("CarePlan", FieldKind::Text).sensitive());

    let mut home = EventSchema::new(types::home_care(), "Home Care Service Event", orgs.telecare);
    for f in person_fields() {
        home = home.field(f);
    }
    let home = home
        .field(FieldDef::required("Service", FieldKind::Text))
        .field(FieldDef::required("DurationMinutes", FieldKind::Integer))
        .field(FieldDef::optional("CareNotes", FieldKind::Text).sensitive());

    let mut alarm = EventSchema::new(types::telecare_alarm(), "Telecare Alarm", orgs.telecare);
    for f in person_fields() {
        alarm = alarm.field(f);
    }
    let alarm = alarm
        .field(FieldDef::required(
            "AlarmKind",
            FieldKind::Code(vec!["fall".into(), "panic".into(), "inactivity".into()]),
        ))
        .field(FieldDef::optional("Outcome", FieldKind::Text).sensitive());

    let mut auto = EventSchema::new(types::autonomy(), "Autonomy Assessment", orgs.welfare);
    for f in person_fields() {
        auto = auto.field(f);
    }
    let auto = auto
        .field(FieldDef::required("Age", FieldKind::Integer))
        .field(FieldDef::required(
            "Sex",
            FieldKind::Code(vec!["m".into(), "f".into()]),
        ))
        .field(FieldDef::required("AutonomyScore", FieldKind::Integer).sensitive())
        .field(FieldDef::optional("PsychNotes", FieldKind::Text).sensitive());

    let mut meal = EventSchema::new(types::meal_delivery(), "Meal Delivery", orgs.municipality);
    for f in person_fields() {
        meal = meal.field(f);
    }
    let meal = meal
        .field(FieldDef::required("MealType", FieldKind::Text))
        .field(FieldDef::optional("DietNotes", FieldKind::Text).sensitive());

    vec![
        (blood, "health/laboratory"),
        (radio, "health/radiology"),
        (disch, "health/hospital"),
        (home, "social/home-care"),
        (alarm, "social/telecare"),
        (auto, "social/welfare"),
        (meal, "social/home-care"),
    ]
}

const GIVEN_NAMES: &[&str] = &[
    "Mario", "Anna", "Luca", "Giulia", "Franco", "Elena", "Paolo", "Chiara", "Sergio", "Rita",
];
const SURNAMES: &[&str] = &[
    "Rossi", "Bianchi", "Ferrari", "Russo", "Gallo", "Conti", "Ricci", "Marino", "Greco", "Bruno",
];

fn generate_person(rng: &mut StdRng, id: u64) -> PersonIdentity {
    let name = GIVEN_NAMES[rng.gen_range(0..GIVEN_NAMES.len())];
    let surname = SURNAMES[rng.gen_range(0..SURNAMES.len())];
    let code: String = (0..16)
        .map(|i| {
            if i < 6 {
                (b'A' + rng.gen_range(0..26)) as char
            } else {
                char::from_digit(rng.gen_range(0..10), 10).unwrap()
            }
        })
        .collect();
    PersonIdentity {
        id: PersonId(id),
        fiscal_code: code,
        name: name.to_string(),
        surname: surname.to_string(),
    }
}

impl Scenario {
    /// Build the scenario: organizations, contracts, gateways, event
    /// classes, the policy matrix, and the citizen population.
    pub fn build(config: ScenarioConfig) -> CssResult<Scenario> {
        let clock = SimClock::starting_at(Timestamp(1_262_304_000_000)); // 2010-01-01
        let mut platform = CssPlatform::builder()
            .clock(Arc::new(clock.clone()))
            .build()?;

        let hospital = platform.register_organization("Ospedale S. Chiara")?;
        let laboratory = platform.register_unit(hospital, "Laboratory")?;
        let radiology = platform.register_unit(hospital, "Radiology")?;
        let municipality = platform.register_organization("Municipality of Trento")?;
        let telecare = platform.register_organization("Telecare Trentino S.p.A.")?;
        let welfare = platform.register_organization("Social Welfare Department")?;
        let elderly_office = platform.register_unit(welfare, "Elderly Care Office")?;
        let governance = platform.register_organization("Provincia Autonoma di Trento")?;
        let mut family_doctors = Vec::with_capacity(config.family_doctors);
        for i in 0..config.family_doctors {
            family_doctors
                .push(platform.register_organization(&format!("Family Doctor {}", i + 1))?);
        }

        let orgs = Orgs {
            hospital,
            laboratory,
            radiology,
            municipality,
            telecare,
            welfare,
            elderly_office,
            governance,
            family_doctors,
        };

        // Contracts: producers also consume (e.g. telecare reacts to
        // discharges), doctors/governance only consume.
        for p in [hospital, municipality, telecare, welfare] {
            platform.join(p, Role::Producer)?;
            platform.join(p, Role::Consumer)?;
        }
        for c in orgs.family_doctors.iter().copied().chain([governance]) {
            platform.join(c, Role::Consumer)?;
        }

        // Declare event classes.
        for (schema, domain) in schemas(&orgs) {
            platform
                .producer(schema.producer)?
                .declare(&schema, Some(domain))?;
        }

        // Policy matrix.
        Self::install_policies(&platform, &orgs)?;

        // Population.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let persons = (0..config.persons)
            .map(|i| generate_person(&mut rng, i as u64 + 1))
            .collect();

        Ok(Scenario {
            platform,
            clock,
            orgs,
            persons,
        })
    }

    fn install_policies(platform: &CssPlatform<MemoryProvider>, orgs: &Orgs) -> CssResult<()> {
        let hospital = platform.producer(orgs.hospital)?;
        let telecare = platform.producer(orgs.telecare)?;
        let welfare_p = platform.producer(orgs.welfare)?;
        let municipality = platform.producer(orgs.municipality)?;

        // Family doctors: clinical events, full clinical fields, for
        // healthcare treatment.
        for ty in [
            types::blood_test(),
            types::radiology_report(),
            types::discharge(),
        ] {
            hospital
                .policy_wizard(&ty)?
                .select_all_fields()
                .grant_to(orgs.family_doctors.iter().copied())
                .map_err(css_types::CssError::from)?
                .for_purposes([Purpose::HealthcareTreatment, Purpose::Emergency])
                .labeled("doctors-clinical", "family doctors, treatment")
                .save()?;
        }
        for ty in [types::telecare_alarm(), types::home_care()] {
            telecare
                .policy_wizard(&ty)?
                .select_all_fields()
                .grant_to(orgs.family_doctors.iter().copied())
                .map_err(css_types::CssError::from)?
                .for_purposes([Purpose::HealthcareTreatment, Purpose::Emergency])
                .labeled("doctors-telecare", "family doctors, treatment")
                .save()?;
        }

        // Welfare department: the social profile — discharge (no
        // diagnosis), home care, meals, autonomy, alarms.
        hospital
            .policy_wizard(&types::discharge())?
            .select_fields(["PatientId", "Ward", "DischargedAt", "CarePlan"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.welfare])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance])
            .labeled("welfare-discharge", "care continuity, no diagnosis")
            .save()?;
        telecare
            .policy_wizard(&types::home_care())?
            .select_all_fields()
            .grant_to([orgs.welfare])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance, Purpose::ServiceAssessment])
            .labeled("welfare-homecare", "")
            .save()?;
        telecare
            .policy_wizard(&types::telecare_alarm())?
            .select_fields(["PatientId", "AlarmKind"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.welfare])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance])
            .labeled("welfare-alarms", "")
            .save()?;
        welfare_p
            .policy_wizard(&types::autonomy())?
            .select_all_fields()
            .grant_to([orgs.elderly_office])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance])
            .labeled("welfare-own-assessments", "")
            .save()?;
        municipality
            .policy_wizard(&types::meal_delivery())?
            .select_all_fields()
            .grant_to([orgs.welfare])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance, Purpose::ServiceAssessment])
            .labeled("welfare-meals", "")
            .save()?;

        // Governance: the paper's example — age, sex, autonomy_score for
        // statistical analysis; service events for reimbursement, no
        // sensitive notes.
        welfare_p
            .policy_wizard(&types::autonomy())?
            .select_fields(["Age", "Sex", "AutonomyScore"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.governance])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::StatisticalAnalysis])
            .labeled("governance-stats", "elderly needs statistics")
            .save()?;
        telecare
            .policy_wizard(&types::home_care())?
            .select_fields(["PatientId", "Service", "DurationMinutes"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.governance])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::Reimbursement, Purpose::ServiceAssessment])
            .labeled("governance-reimbursement-homecare", "")
            .save()?;
        municipality
            .policy_wizard(&types::meal_delivery())?
            .select_fields(["PatientId", "MealType"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.governance])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::Reimbursement, Purpose::ServiceAssessment])
            .labeled("governance-reimbursement-meals", "")
            .save()?;

        // Telecare activates its service on discharge notifications.
        hospital
            .policy_wizard(&types::discharge())?
            .select_fields(["PatientId", "DischargedAt"])
            .map_err(css_types::CssError::from)?
            .grant_to([orgs.telecare])
            .map_err(css_types::CssError::from)?
            .for_purposes([Purpose::SocialAssistance])
            .labeled("telecare-activation", "")
            .save()?;
        Ok(())
    }

    /// The producer organization of a scenario event type.
    pub fn producer_of(&self, ty: &EventTypeId) -> ActorId {
        ty_producer(&self.orgs, ty)
    }
}

fn ty_producer(orgs: &Orgs, ty: &EventTypeId) -> ActorId {
    match ty.code() {
        "blood-test" | "radiology-report" | "hospital-discharge" => orgs.hospital,
        "home-care-service-event" | "telecare-alarm" => orgs.telecare,
        "autonomy-assessment" => orgs.welfare,
        "meal-delivery" => orgs.municipality,
        other => panic!("unknown scenario event type {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds() {
        let s = Scenario::build(ScenarioConfig::default()).unwrap();
        assert_eq!(s.persons.len(), 50);
        assert_eq!(s.orgs.family_doctors.len(), 3);
        // All event classes declared.
        let consumer = s.platform.consumer(s.orgs.governance).unwrap();
        assert_eq!(consumer.browse_catalog().len(), 7);
    }

    #[test]
    fn person_generation_is_deterministic() {
        let a = Scenario::build(ScenarioConfig {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = Scenario::build(ScenarioConfig {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(a.persons, b.persons);
        let c = Scenario::build(ScenarioConfig {
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a.persons, c.persons);
    }

    #[test]
    fn doctors_can_subscribe_to_clinical_events() {
        let s = Scenario::build(ScenarioConfig::default()).unwrap();
        let doctor = s.platform.consumer(s.orgs.family_doctors[0]).unwrap();
        assert!(doctor.subscribe(&types::blood_test()).is_ok());
        assert!(doctor.subscribe(&types::telecare_alarm()).is_ok());
        // But not to autonomy assessments (welfare internal).
        assert!(doctor.subscribe(&types::autonomy()).is_err());
    }

    #[test]
    fn governance_limited_to_statistics_fields() {
        let s = Scenario::build(ScenarioConfig::default()).unwrap();
        let gov = s.platform.consumer(s.orgs.governance).unwrap();
        assert!(gov.subscribe(&types::autonomy()).is_ok());
        // Governance cannot subscribe to blood tests at all.
        assert!(gov.subscribe(&types::blood_test()).is_err());
    }
}
