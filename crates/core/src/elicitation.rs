//! The Privacy Requirements Elicitation Tool (Section 6).
//!
//! The paper's web wizard (Figs. 6–7) asks the data owner to pick, for
//! one type of event: (i) the fields to expose, (ii) the consumers,
//! (iii) the admissible purposes, plus a label, a description, and an
//! optional validity date. It then "automatically generates and stores
//! in a policy repository the privacy policy in XACML format". The
//! point is that a privacy expert needs **no** knowledge of XACML or of
//! the source DB schema.
//!
//! [`PolicyWizard`] is that flow as a validated builder: every step
//! rejects invalid input with a domain error ([`WizardError`]) naming
//! exactly what the UI would highlight, and [`PolicyWizard::save`]
//! produces one [`css_policy::PrivacyPolicy`] per selected consumer and
//! defines each at the controller, which persists its XACML form.

use std::collections::BTreeSet;
use std::fmt;

use css_event::EventSchema;
use css_policy::{PrivacyPolicy, ValidityWindow};
use css_types::{ActorId, CssError, CssResult, PolicyId, Purpose, Timestamp};

use crate::platform::SharedController;
use crate::provider::BackendProvider;

/// A validation failure at a wizard step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WizardError {
    /// A selected field is not part of the event's schema.
    UnknownField(String),
    /// The consumer actor is not registered at the controller.
    UnknownConsumer(ActorId),
    /// No consumer selected before saving.
    NoConsumers,
    /// No purpose selected before saving.
    NoPurposes,
    /// The validity window ends before it starts.
    InvertedValidity,
    /// The rule label is empty.
    MissingLabel,
}

impl fmt::Display for WizardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WizardError::UnknownField(name) => {
                write!(f, "field {name:?} is not part of this event type")
            }
            WizardError::UnknownConsumer(id) => write!(f, "consumer {id} is not registered"),
            WizardError::NoConsumers => f.write_str("select at least one consumer"),
            WizardError::NoPurposes => f.write_str("select at least one purpose"),
            WizardError::InvertedValidity => f.write_str("validity window ends before it starts"),
            WizardError::MissingLabel => f.write_str("give the rule a label"),
        }
    }
}

impl std::error::Error for WizardError {}

impl From<WizardError> for CssError {
    fn from(e: WizardError) -> Self {
        CssError::Invalid(e.to_string())
    }
}

/// The step-by-step policy builder.
///
/// Obtained from [`crate::ProducerHandle::policy_wizard`]; the producer
/// and event type are fixed at construction, mirroring the dashboard's
/// "set up a new rule for `<event>`" entry point (Fig. 6).
pub struct PolicyWizard<P: BackendProvider> {
    controller: SharedController<P>,
    producer: ActorId,
    schema: EventSchema,
    fields: BTreeSet<String>,
    consumers: Vec<ActorId>,
    purposes: BTreeSet<Purpose>,
    label: String,
    description: String,
    validity: ValidityWindow,
}

impl<P: BackendProvider> PolicyWizard<P> {
    pub(crate) fn new(
        controller: SharedController<P>,
        producer: ActorId,
        schema: EventSchema,
    ) -> Self {
        PolicyWizard {
            controller,
            producer,
            schema,
            fields: BTreeSet::new(),
            consumers: Vec::new(),
            purposes: BTreeSet::new(),
            label: String::new(),
            description: String::new(),
            validity: ValidityWindow::ALWAYS,
        }
    }

    /// The fields the wizard offers (the event's declared fields).
    pub fn available_fields(&self) -> Vec<&str> {
        self.schema.field_names().collect()
    }

    /// Step (i): select the accessible fields. Selecting none is legal —
    /// it authorizes notifications/subscription without any detail field.
    pub fn select_fields<I, S>(mut self, fields: I) -> Result<Self, WizardError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for f in fields {
            let name = f.as_ref();
            if self.schema.field_def(name).is_none() {
                return Err(WizardError::UnknownField(name.to_string()));
            }
            self.fields.insert(name.to_string());
        }
        Ok(self)
    }

    /// Step (i) variant: select every declared field.
    pub fn select_all_fields(mut self) -> Self {
        self.fields = self.schema.field_names().map(str::to_string).collect();
        self
    }

    /// Step (ii): select the consumer organizations/units.
    pub fn grant_to(
        mut self,
        consumers: impl IntoIterator<Item = ActorId>,
    ) -> Result<Self, WizardError> {
        for c in consumers {
            if self.controller.actors().get(c).is_none() {
                return Err(WizardError::UnknownConsumer(c));
            }
            if !self.consumers.contains(&c) {
                self.consumers.push(c);
            }
        }
        Ok(self)
    }

    /// Step (iii): select the admissible purposes.
    pub fn for_purposes(mut self, purposes: impl IntoIterator<Item = Purpose>) -> Self {
        self.purposes.extend(purposes);
        self
    }

    /// Label and description for the rule list in the dashboard.
    pub fn labeled(mut self, label: impl Into<String>, description: impl Into<String>) -> Self {
        self.label = label.into();
        self.description = description.into();
        self
    }

    /// Optional "valid until" date (Fig. 7) — e.g. the end of a private
    /// company's care contract.
    pub fn valid_until(mut self, until: Timestamp) -> Self {
        self.validity.not_after = Some(until);
        self
    }

    /// Optional start of validity.
    pub fn valid_from(mut self, from: Timestamp) -> Self {
        self.validity.not_before = Some(from);
        self
    }

    /// Final step: validate, generate one policy per consumer and define
    /// each at the controller, which persists it before installing it.
    pub fn save(self) -> CssResult<Vec<PolicyId>> {
        if self.consumers.is_empty() {
            return Err(WizardError::NoConsumers.into());
        }
        if self.purposes.is_empty() {
            return Err(WizardError::NoPurposes.into());
        }
        if self.label.trim().is_empty() {
            return Err(WizardError::MissingLabel.into());
        }
        if let (Some(from), Some(to)) = (self.validity.not_before, self.validity.not_after) {
            if to < from {
                return Err(WizardError::InvertedValidity.into());
            }
        }
        let mut ids = Vec::with_capacity(self.consumers.len());
        for consumer in &self.consumers {
            let policy = PrivacyPolicy::new(
                self.controller.next_policy_id(),
                self.producer,
                *consumer,
                self.schema.id.clone(),
                self.purposes.iter().cloned(),
                self.fields.iter().cloned(),
            )
            .valid(self.validity)
            .labeled(self.label.clone(), self.description.clone());
            ids.push(policy.id);
            self.controller.define_policy(policy)?;
        }
        Ok(ids)
    }
}
