//! The event catalog of the CSS platform.
//!
//! The paper adopts "a central registry with searching and data
//! management functionalities over meta data that links and describes
//! the data generated by producers", implemented "according to the ebXML
//! standard" (Sections 3–4). What the platform reads of it is the
//! [`EventCatalog`]: the classes of event details producers declare,
//! each with its schema, classified by care domain, listed by producer
//! or by domain, versions kept side by side. The rest of the ebXML
//! information model (slots, associations, lifecycle status, XML
//! repository content) is not reproduced: nothing in the platform
//! reads it.

mod catalog;

pub use catalog::{EventCatalog, CARE_DOMAIN_SCHEME};
