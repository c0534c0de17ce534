//! Validated cache and TLB configurations.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

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
/// nonzero powers of two and that the geometry is self-consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
        let ways_bytes = block_bytes * u64::from(assoc);
        if ways_bytes == 0
            || !size_bytes.is_multiple_of(ways_bytes)
            || !(size_bytes / ways_bytes).is_power_of_two()
        {
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

/// Geometry of a fully-associative TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Page number of a byte address.
    #[inline]
    pub fn page_of(self, addr: u64) -> u64 {
        addr / self.page_bytes
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
    fn tlb_pages() {
        let t = TlbConfig::default_tlb();
        assert_eq!(t.page_of(4095), 0);
        assert_eq!(t.page_of(4096), 1);
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = CacheConfig::new("c", 3000, 4, 64).unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
