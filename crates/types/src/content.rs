//! The content-type model.
//!
//! Every item in Calliope's table of contents has a *content type* (paper
//! §2.1–2.2). The type determines the rate at which content is played,
//! whether that rate is constant or variable, and — for variable-rate
//! encodings — separate bandwidth and storage consumption rates: bandwidth
//! is reserved near the stream's peak rate while disk space is charged
//! near its average rate.
//!
//! Types may be *composite*: a `Seminar` type composed of one VAT audio
//! type and one RTP video type, for example. Composite types carry no
//! rates of their own; their resource demand is the sum of their atomic
//! components, and playing one creates a *stream group* pinned to a single
//! MSU.

use crate::error::{Error, Result};
use crate::time::{BitRate, ByteRate};
use core::fmt;

/// The wire protocol used to deliver packets of an atomic content type.
///
/// Protocol modules (paper §2.3.2) are small: a header definition plus a
/// hook that derives delivery times while recording. The enum names the
/// module; its behaviour lives in `calliope-proto`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// Fixed-size packets at a constant rate (e.g. raw MPEG-1 to a dumb
    /// set-top decoder). Delivery schedule is computed, not stored.
    ConstantRate,
    /// RTP video: two ports (data + control), sender timestamps in the
    /// header used for delivery times.
    Rtp,
    /// VAT audio: small fixed-rate packets with a VAT header.
    Vat,
}

impl ProtocolId {
    /// All known protocol ids, for table-driven tests and registries.
    pub const ALL: [ProtocolId; 3] = [ProtocolId::ConstantRate, ProtocolId::Rtp, ProtocolId::Vat];
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolId::ConstantRate => "constant-rate",
            ProtocolId::Rtp => "rtp",
            ProtocolId::Vat => "vat",
        };
        f.write_str(name)
    }
}

/// Whether an atomic type plays at a constant or variable rate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContentKind {
    /// Constant bit-rate: bandwidth and storage are consumed at the same
    /// rate, and the delivery schedule is calculated rather than stored.
    Constant {
        /// The single play/record rate.
        rate: BitRate,
    },
    /// Variable bit-rate: bandwidth is reserved near the peak rate,
    /// storage near the average rate, and a delivery schedule is stored
    /// interleaved with the data (in the IB-tree).
    Variable {
        /// Bandwidth reservation rate (close to the stream's peak).
        bandwidth: BitRate,
        /// Storage consumption rate (close to the stream's average).
        storage: ByteRate,
    },
}

/// The definition of one content type in the Coordinator's type table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentTypeSpec {
    /// Unique type name, e.g. `"mpeg1"`, `"nv-video"`, `"seminar"`.
    pub name: String,
    /// Atomic (rates + protocol) or composite (component type names).
    pub body: TypeBody,
}

/// The body of a [`ContentTypeSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeBody {
    /// A single stream delivered by one protocol module.
    Atomic {
        /// How packets of this type travel on the wire.
        protocol: ProtocolId,
        /// Constant- or variable-rate resource demands.
        kind: ContentKind,
    },
    /// A bundle of previously-defined atomic types (e.g. Seminar = one VAT
    /// audio + one RTP video). Component names must refer to atomic types;
    /// Calliope does not nest composites.
    Composite {
        /// Names of the atomic component types, in display-port order.
        components: Vec<String>,
    },
}

impl ContentTypeSpec {
    /// Convenience constructor for an atomic constant-rate type.
    pub fn constant(name: &str, protocol: ProtocolId, rate: BitRate) -> Self {
        ContentTypeSpec {
            name: name.to_owned(),
            body: TypeBody::Atomic {
                protocol,
                kind: ContentKind::Constant { rate },
            },
        }
    }

    /// Convenience constructor for an atomic variable-rate type.
    pub fn variable(
        name: &str,
        protocol: ProtocolId,
        bandwidth: BitRate,
        storage: ByteRate,
    ) -> Self {
        ContentTypeSpec {
            name: name.to_owned(),
            body: TypeBody::Atomic {
                protocol,
                kind: ContentKind::Variable { bandwidth, storage },
            },
        }
    }

    /// Convenience constructor for a composite type.
    pub fn composite(name: &str, components: &[&str]) -> Self {
        ContentTypeSpec {
            name: name.to_owned(),
            body: TypeBody::Composite {
                components: components.iter().map(|s| (*s).to_owned()).collect(),
            },
        }
    }

    /// Returns true if this is a composite type.
    pub fn is_composite(&self) -> bool {
        matches!(self.body, TypeBody::Composite { .. })
    }

    /// Bandwidth the Coordinator must reserve to play one stream of this
    /// type, if atomic.
    ///
    /// Composite types have no rate of their own; callers sum their
    /// components. Returns an error for composites so misuse is loud.
    pub fn bandwidth(&self) -> Result<BitRate> {
        match &self.body {
            TypeBody::Atomic { kind, .. } => Ok(match kind {
                ContentKind::Constant { rate } => *rate,
                ContentKind::Variable { bandwidth, .. } => *bandwidth,
            }),
            TypeBody::Composite { .. } => Err(Error::CompositeHasNoRate {
                type_name: self.name.clone(),
            }),
        }
    }

    /// Storage rate charged while recording this type, if atomic.
    pub fn storage_rate(&self) -> Result<ByteRate> {
        match &self.body {
            TypeBody::Atomic { kind, .. } => Ok(match kind {
                ContentKind::Constant { rate } => rate.as_byte_rate(),
                ContentKind::Variable { storage, .. } => *storage,
            }),
            TypeBody::Composite { .. } => Err(Error::CompositeHasNoRate {
                type_name: self.name.clone(),
            }),
        }
    }

    /// The protocol module for this type, if atomic.
    pub fn protocol(&self) -> Result<ProtocolId> {
        match &self.body {
            TypeBody::Atomic { protocol, .. } => Ok(*protocol),
            TypeBody::Composite { .. } => Err(Error::CompositeHasNoRate {
                type_name: self.name.clone(),
            }),
        }
    }

    /// True if the type stores a delivery schedule (variable rate).
    ///
    /// Constant-rate schedules are calculated at playback time instead.
    pub fn stores_schedule(&self) -> bool {
        matches!(
            self.body,
            TypeBody::Atomic {
                kind: ContentKind::Variable { .. },
                ..
            }
        )
    }
}

/// Well-known content types used across tests, examples, and benches.
///
/// Rates follow the paper: 1.5 Mbit/s MPEG-1; NV files averaging 635–877
/// Kbit/s with 50 ms-window peaks of 2.0–5.4 Mbit/s (we reserve bandwidth
/// at 2 Mbit/s, a conservative peak, and charge storage at ~100 KB/s, near
/// the average); VAT audio at a nominal 64 Kbit/s. VAT is an MBone tool,
/// so — like NV — its packet stream is stored with its delivery schedule
/// (the IB-tree), preserving the 20 ms packet framing; bandwidth is
/// reserved slightly above nominal for the headers.
pub fn builtin_types() -> Vec<ContentTypeSpec> {
    vec![
        ContentTypeSpec::constant("mpeg1", ProtocolId::ConstantRate, BitRate::from_kbps(1_500)),
        ContentTypeSpec::variable(
            "nv-video",
            ProtocolId::Rtp,
            BitRate::from_mbps(2),
            ByteRate::from_bytes_per_sec(100_000),
        ),
        ContentTypeSpec::variable(
            "vat-audio",
            ProtocolId::Vat,
            BitRate::from_kbps(80),
            ByteRate::from_bytes_per_sec(10_500),
        ),
        ContentTypeSpec::composite("seminar", &["nv-video", "vat-audio"]),
    ]
}

/// One entry in the Coordinator's table of contents, as shown to clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentEntry {
    /// Content name, unique within the server.
    pub name: String,
    /// Name of the content's type in the type table.
    pub type_name: String,
    /// Total size in bytes (sum over replicas is not included; this is the
    /// size of one copy, summed over composite components).
    pub bytes: u64,
    /// Playing time in microseconds.
    pub duration_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_type_uses_same_rate_for_both() {
        let t =
            ContentTypeSpec::constant("mpeg1", ProtocolId::ConstantRate, BitRate::from_kbps(1_500));
        assert_eq!(t.bandwidth().unwrap(), BitRate::from_kbps(1_500));
        assert_eq!(t.storage_rate().unwrap().bytes_per_sec(), 1_500_000 / 8);
        assert!(!t.stores_schedule());
        assert!(!t.is_composite());
    }

    #[test]
    fn variable_type_reserves_peak_charges_average() {
        let t = ContentTypeSpec::variable(
            "nv",
            ProtocolId::Rtp,
            BitRate::from_mbps(2),
            ByteRate::from_bytes_per_sec(80_000),
        );
        // Bandwidth (peak) exceeds storage (average): the paper's rule.
        assert!(
            t.bandwidth().unwrap().as_byte_rate().bytes_per_sec()
                > t.storage_rate().unwrap().bytes_per_sec()
        );
        assert!(t.stores_schedule());
    }

    #[test]
    fn composite_type_has_no_rates() {
        let t = ContentTypeSpec::composite("seminar", &["nv", "vat"]);
        assert!(t.is_composite());
        assert!(t.bandwidth().is_err());
        assert!(t.storage_rate().is_err());
        assert!(t.protocol().is_err());
        assert!(!t.stores_schedule());
    }

    #[test]
    fn builtin_types_are_consistent() {
        let types = builtin_types();
        assert_eq!(types.len(), 4);
        let seminar = types.iter().find(|t| t.name == "seminar").unwrap();
        if let TypeBody::Composite { components } = &seminar.body {
            for c in components {
                let comp = types
                    .iter()
                    .find(|t| &t.name == c)
                    .expect("component exists");
                assert!(!comp.is_composite(), "no nested composites");
            }
        } else {
            panic!("seminar must be composite");
        }
    }
}
