//! Validated cache and TLB configurations.

use std::error::Error;
use std::fmt;

use serde::{de_field, DeError, Deserialize, Serialize, Value};

/// Error produced when constructing an invalid [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Size, block size, or associativity was zero.
    Zero {
        /// Which field was zero.
        field: &'static str,
    },
    /// A field that must be a power of two was not.
    NotPowerOfTwo {
        /// Which field was not a power of two.
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// `size / (block * assoc)` does not yield a whole power-of-two set count.
    InconsistentGeometry {
        /// Total capacity in bytes.
        size_bytes: u64,
        /// Associativity (ways).
        assoc: u32,
        /// Block size in bytes.
        block_bytes: u64,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::Zero { field } => write!(f, "cache {field} must be nonzero"),
            CacheConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "cache {field} must be a power of two, got {value}")
            }
            CacheConfigError::InconsistentGeometry {
                size_bytes,
                assoc,
                block_bytes,
            } => write!(
                f,
                "cache geometry is inconsistent: {size_bytes} bytes / ({assoc} ways x \
                 {block_bytes}-byte blocks) is not a power-of-two set count"
            ),
        }
    }
}

impl Error for CacheConfigError {}

/// Geometry of one set-associative cache.
///
/// Constructed via [`CacheConfig::new`], which validates that all fields are
/// nonzero powers of two and that the geometry is self-consistent —
/// deserialization runs the same checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct CacheConfig {
    name: String,
    size_bytes: u64,
    assoc: u32,
    block_bytes: u64,
}

impl CacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] if any field is zero or not a power of
    /// two, or if the implied set count is not a power of two.
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        assoc: u32,
        block_bytes: u64,
    ) -> Result<CacheConfig, CacheConfigError> {
        fn pow2(field: &'static str, value: u64) -> Result<(), CacheConfigError> {
            if value == 0 {
                Err(CacheConfigError::Zero { field })
            } else if !value.is_power_of_two() {
                Err(CacheConfigError::NotPowerOfTwo { field, value })
            } else {
                Ok(())
            }
        }
        pow2("size", size_bytes)?;
        pow2("associativity", u64::from(assoc))?;
        pow2("block size", block_bytes)?;
        let ways_bytes = block_bytes.saturating_mul(u64::from(assoc));
        if !size_bytes.is_multiple_of(ways_bytes) || !(size_bytes / ways_bytes).is_power_of_two() {
            return Err(CacheConfigError::InconsistentGeometry {
                size_bytes,
                assoc,
                block_bytes,
            });
        }
        Ok(CacheConfig {
            name: name.into(),
            size_bytes,
            assoc,
            block_bytes,
        })
    }

    /// Human-readable name (e.g. `"L1D"`, `"L2-512K-8w"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways per set.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.block_bytes * u64::from(self.assoc))
    }
}

impl Deserialize for CacheConfig {
    fn from_value(value: &Value) -> Result<CacheConfig, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?;
        CacheConfig::new(
            de_field::<String>(fields, "name")?,
            de_field(fields, "size_bytes")?,
            de_field(fields, "assoc")?,
            de_field(fields, "block_bytes")?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KB, {}-way, {}B blocks, {} sets",
            self.name,
            self.size_bytes / 1024,
            self.assoc,
            self.block_bytes,
            self.sets()
        )
    }
}

/// Geometry of a fully-associative TLB. Deserialization checks the implied
/// one-set cache geometry (see [`Tlb::new`](crate::Tlb::new)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Page size in bytes (must be a power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// A 32-entry, 4 KB-page TLB — the default used throughout the paper's
    /// experiments.
    pub fn default_tlb() -> TlbConfig {
        TlbConfig {
            entries: 32,
            page_bytes: 4096,
        }
    }

    /// The one-set cache whose "blocks" are this TLB's pages.
    pub(crate) fn cache_config(self) -> Result<CacheConfig, CacheConfigError> {
        CacheConfig::new(
            "TLB",
            self.page_bytes.saturating_mul(u64::from(self.entries)),
            self.entries,
            self.page_bytes,
        )
    }
}

impl Deserialize for TlbConfig {
    fn from_value(value: &Value) -> Result<TlbConfig, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?;
        let tlb = TlbConfig {
            entries: de_field(fields, "entries")?,
            page_bytes: de_field(fields, "page_bytes")?,
        };
        tlb.cache_config()
            .map_err(|e| DeError::new(format!("TLB geometry: {e}")))?;
        Ok(tlb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_geometry() {
        let c = CacheConfig::new("L1D", 32 * 1024, 4, 64).unwrap();
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn rejects_zero_and_non_power_of_two() {
        assert!(matches!(
            CacheConfig::new("c", 0, 4, 64),
            Err(CacheConfigError::Zero { field: "size" })
        ));
        assert!(matches!(
            CacheConfig::new("c", 3000, 4, 64),
            Err(CacheConfigError::NotPowerOfTwo { field: "size", .. })
        ));
        assert!(matches!(
            CacheConfig::new("c", 32768, 3, 64),
            Err(CacheConfigError::NotPowerOfTwo {
                field: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new("c", 32768, 4, 48),
            Err(CacheConfigError::NotPowerOfTwo {
                field: "block size",
                ..
            })
        ));
    }

    #[test]
    fn rejects_inconsistent_geometry() {
        // 1024 bytes / (4 ways * 512B blocks) = 0.5 sets
        assert!(matches!(
            CacheConfig::new("c", 1024, 4, 512),
            Err(CacheConfigError::InconsistentGeometry { .. })
        ));
    }

    #[test]
    fn fully_associative_is_expressible() {
        // size == assoc * block -> 1 set
        let c = CacheConfig::new("fa", 64 * 32, 32, 64).unwrap();
        assert_eq!(c.sets(), 1);
    }

    #[test]
    fn display_mentions_geometry() {
        let c = CacheConfig::new("L2", 512 * 1024, 8, 64).unwrap();
        let s = c.to_string();
        assert!(s.contains("512 KB"));
        assert!(s.contains("8-way"));
    }

    #[test]
    fn deserialization_validates_geometry() {
        let object = |fields: &[(&str, Value)]| {
            Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let cache = |size: u64, assoc: u64, block: u64| {
            CacheConfig::from_value(&object(&[
                ("name", Value::Str("c".into())),
                ("size_bytes", Value::UInt(size)),
                ("assoc", Value::UInt(assoc)),
                ("block_bytes", Value::UInt(block)),
            ]))
        };
        assert_eq!(
            cache(32768, 4, 64),
            Ok(CacheConfig::new("c", 32768, 4, 64).unwrap())
        );
        for (size, assoc, block) in [(0, 4, 64), (3000, 4, 64), (32768, 3, 64), (1024, 4, 512)] {
            assert!(cache(size, assoc, block).is_err(), "{size}/{assoc}/{block}");
        }
        assert!(cache(1 << 20, 2, 1 << 63).is_err(), "overflowing ways");
        let tlb = |entries: u64, page: u64| {
            TlbConfig::from_value(&object(&[
                ("entries", Value::UInt(entries)),
                ("page_bytes", Value::UInt(page)),
            ]))
        };
        assert_eq!(tlb(32, 4096), Ok(TlbConfig::default_tlb()));
        for (entries, page) in [(0, 4096), (3, 4096), (32, 0), (32, 4000), (2, 1 << 63)] {
            assert!(tlb(entries, page).is_err(), "{entries}/{page}");
        }
    }

    #[test]
    fn default_hierarchy_round_trips() {
        let config = crate::HierarchyConfig::default_hierarchy();
        let back = crate::HierarchyConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = CacheConfig::new("c", 3000, 4, 64).unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
