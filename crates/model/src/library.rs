//! Library and whole-system configuration.
//!
//! A [`LibrarySpec`] bundles the per-library hardware (drives, tapes, robot);
//! a [`SystemConfig`] is `n` identical libraries — the "parallel tape storage
//! system" of the paper (Figure 1). Helper iterators enumerate all drives
//! and tapes in a fixed, deterministic order.

use crate::drive::DriveSpec;
use crate::ids::{DriveId, LibraryId, TapeId};
use crate::robot::RobotSpec;
use crate::tape::TapeSpec;
use crate::units::Bytes;
use serde::{Deserialize, Serialize};

/// Hardware of one tape library.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LibrarySpec {
    /// Number of drive bays (`d` in the paper).
    pub drives: u8,
    /// Number of cartridge storage cells (`t` in the paper, `d ≪ t`).
    pub tapes: u16,
    /// Drive model installed in every bay.
    pub drive: DriveSpec,
    /// Cartridge model in every cell.
    pub tape: TapeSpec,
    /// The robot arm.
    pub robot: RobotSpec,
}

impl LibrarySpec {
    /// Total native capacity of all cartridges in this library.
    pub fn capacity(&self) -> Bytes {
        Bytes(self.tape.capacity.get() * self.tapes as u64)
    }

    /// Validates the paper's structural assumptions.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.drives == 0 {
            return Err(ConfigError::NoDrives);
        }
        if self.tapes == 0 {
            return Err(ConfigError::NoTapes);
        }
        if (self.tapes as u32) < self.drives as u32 {
            return Err(ConfigError::FewerTapesThanDrives {
                tapes: self.tapes,
                drives: self.drives,
            });
        }
        if self.robot.arms == 0 {
            // `RobotSpec { arms: 0 }` deserializes fine but would wedge
            // the first exchange forever; reject it up front.
            return Err(ConfigError::NoRobotArms);
        }
        Ok(())
    }
}

/// The whole parallel tape storage system: `n` identical libraries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of libraries (`n` in the paper).
    pub libraries: u16,
    /// The per-library hardware (identical across libraries).
    pub library: LibrarySpec,
}

impl SystemConfig {
    /// Creates and validates a configuration.
    pub fn new(libraries: u16, library: LibrarySpec) -> Result<SystemConfig, ConfigError> {
        if libraries == 0 {
            return Err(ConfigError::NoLibraries);
        }
        library.validate()?;
        Ok(SystemConfig { libraries, library })
    }

    /// Total number of drives across the system (`n × d`).
    pub fn total_drives(&self) -> usize {
        self.libraries as usize * self.library.drives as usize
    }

    /// Total number of tapes across the system (`n × t`).
    pub fn total_tapes(&self) -> usize {
        self.libraries as usize * self.library.tapes as usize
    }

    /// Total native capacity of the system.
    pub fn total_capacity(&self) -> Bytes {
        Bytes(self.library.capacity().get() * self.libraries as u64)
    }

    /// All library ids, in order.
    pub fn library_ids(&self) -> impl Iterator<Item = LibraryId> {
        (0..self.libraries).map(LibraryId)
    }

    /// All drive ids, grouped by library then bay.
    pub fn drive_ids(&self) -> impl Iterator<Item = DriveId> + '_ {
        self.library_ids()
            .flat_map(move |lib| (0..self.library.drives).map(move |bay| DriveId::new(lib, bay)))
    }

    /// All tape ids, grouped by library then slot.
    pub fn tape_ids(&self) -> impl Iterator<Item = TapeId> + '_ {
        self.library_ids()
            .flat_map(move |lib| (0..self.library.tapes).map(move |slot| TapeId::new(lib, slot)))
    }

    /// Dense 0-based index of a tape across the whole system
    /// (library-major), for flat arrays keyed by tape.
    pub fn tape_index(&self, tape: TapeId) -> usize {
        tape.library.idx() * self.library.tapes as usize + tape.slot as usize
    }

    /// Dense 0-based index of a drive across the whole system.
    pub fn drive_index(&self, drive: DriveId) -> usize {
        drive.library.idx() * self.library.drives as usize + drive.bay as usize
    }

    /// The drive at dense index `idx`, the inverse of
    /// [`SystemConfig::drive_index`].
    #[inline]
    pub fn drive_at(&self, idx: usize) -> DriveId {
        let d = self.library.drives as usize;
        DriveId::new(LibraryId((idx / d) as u16), (idx % d) as u8)
    }
}

/// Configuration validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A system needs at least one library.
    NoLibraries,
    /// A library needs at least one drive.
    NoDrives,
    /// A library needs at least one tape.
    NoTapes,
    /// The paper assumes `d ≤ t` (in fact `d ≪ t`).
    FewerTapesThanDrives {
        /// Configured tape count.
        tapes: u16,
        /// Configured drive count.
        drives: u8,
    },
    /// A robot with zero arms can never perform an exchange.
    NoRobotArms,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoLibraries => write!(f, "at least one library is required"),
            ConfigError::NoDrives => write!(f, "at least one drive per library is required"),
            ConfigError::NoTapes => write!(f, "at least one tape per library is required"),
            ConfigError::FewerTapesThanDrives { tapes, drives } => {
                write!(f, "{tapes} tapes cannot feed {drives} drives (need t >= d)")
            }
            ConfigError::NoRobotArms => {
                write!(f, "the robot needs at least one arm to exchange tapes")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::BytesPerSec;

    fn lib_spec() -> LibrarySpec {
        LibrarySpec {
            drives: 8,
            tapes: 80,
            drive: DriveSpec {
                native_rate: BytesPerSec::mb_per_sec(80.0),
                load_time: 19.0,
                unload_time: 19.0,
                full_pass_time: 98.0,
            },
            tape: TapeSpec::with_capacity(Bytes::gb(400)),
            robot: RobotSpec {
                cell_to_drive_time: 7.6,
                arms: 1,
            },
        }
    }

    #[test]
    fn capacities() {
        let sys = SystemConfig::new(3, lib_spec()).unwrap();
        assert_eq!(sys.library.capacity(), Bytes::tb(32));
        assert_eq!(sys.total_capacity(), Bytes::tb(96));
        assert_eq!(sys.total_drives(), 24);
        assert_eq!(sys.total_tapes(), 240);
    }

    #[test]
    fn id_enumeration_is_dense_and_ordered() {
        let sys = SystemConfig::new(2, lib_spec()).unwrap();
        let drives: Vec<_> = sys.drive_ids().collect();
        assert_eq!(drives.len(), 16);
        assert_eq!(drives[0], DriveId::new(LibraryId(0), 0));
        assert_eq!(drives[8], DriveId::new(LibraryId(1), 0));
        for (i, d) in drives.iter().enumerate() {
            assert_eq!(sys.drive_index(*d), i);
            assert_eq!(sys.drive_at(i), *d);
        }
        let tapes: Vec<_> = sys.tape_ids().collect();
        assert_eq!(tapes.len(), 160);
        for (i, t) in tapes.iter().enumerate() {
            assert_eq!(sys.tape_index(*t), i);
        }
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            SystemConfig::new(0, lib_spec()).unwrap_err(),
            ConfigError::NoLibraries
        );
        let mut bad = lib_spec();
        bad.drives = 0;
        assert_eq!(
            SystemConfig::new(1, bad).unwrap_err(),
            ConfigError::NoDrives
        );
        let mut bad = lib_spec();
        bad.tapes = 4;
        assert!(matches!(
            SystemConfig::new(1, bad).unwrap_err(),
            ConfigError::FewerTapesThanDrives {
                tapes: 4,
                drives: 8
            }
        ));
        let mut bad = lib_spec();
        bad.tapes = 0;
        assert_eq!(SystemConfig::new(1, bad).unwrap_err(), ConfigError::NoTapes);
    }

    #[test]
    fn zero_arm_robot_is_rejected() {
        let mut bad = lib_spec();
        bad.robot.arms = 0;
        assert_eq!(
            SystemConfig::new(1, bad).unwrap_err(),
            ConfigError::NoRobotArms
        );
        assert_eq!(bad.validate().unwrap_err(), ConfigError::NoRobotArms);
        assert!(
            ConfigError::NoRobotArms.to_string().contains("arm"),
            "error message should name the arm"
        );
    }
}
