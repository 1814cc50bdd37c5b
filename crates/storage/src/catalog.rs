//! The file catalog — the MSU file system's only metadata.
//!
//! One [`FileMeta`] per file: its kind, block list, IB-tree root, and
//! accounting. The whole catalog is kept in memory and written through
//! to the metadata region on mutation; with 256 KB blocks a two-hour
//! movie has ~5400 blocks ≈ 43 KB of block list, so even a full disk's
//! catalog is a few hundred kilobytes (paper §2.3.3: metadata small
//! enough to cache entirely).

use calliope_types::error::{Error, Result};
use calliope_types::impl_wire;
use calliope_types::wire::Wire;
use std::collections::BTreeMap;

/// How a file's bytes are organized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// An opaque byte stream (constant-rate content, e.g. raw MPEG-1).
    /// The delivery schedule is calculated, so no per-packet structure
    /// is stored.
    Raw,
    /// An Integrated B-tree: packet records interleaved with embedded
    /// index pages, keyed by delivery time (variable-rate content).
    IbTree,
}

impl_wire! {
    enum FileKind as "file kind" { 0 => Raw, 1 => IbTree }
}

/// One IB-tree root entry: the first delivery-time key covered by an
/// embedded internal page, and the file-page index where that internal
/// page lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootEntry {
    /// First key (delivery offset in µs) covered by the internal page.
    pub first_key: u64,
    /// File-relative index of the data page embedding the internal page.
    pub page: u64,
}

impl_wire! {
    struct RootEntry { first_key, page }
}

/// Metadata for one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File name, unique per disk.
    pub name: String,
    /// Raw stream or IB-tree.
    pub kind: FileKind,
    /// Valid payload bytes: the byte length of a raw file, or the sum of
    /// media-record payload bytes for an IB-tree file.
    pub len_bytes: u64,
    /// Play time in microseconds (0 until the file is finalized).
    pub duration_us: u64,
    /// Data blocks holding file pages, in file order. Indices are
    /// relative to the data region.
    pub blocks: Vec<u64>,
    /// Blocks reserved for a recording in progress but not yet written.
    /// Returned to the allocator when the file is finalized ("unused
    /// space will be returned to the system once the recording session
    /// has completed", paper §2.2).
    pub reserved: Vec<u64>,
    /// IB-tree root: one entry per embedded internal page. Empty for raw
    /// files.
    pub root: Vec<RootEntry>,
    /// True once the recording completed and `reserved` was released.
    pub finalized: bool,
}

impl FileMeta {
    /// Creates metadata for a brand-new file.
    pub fn new(name: String, kind: FileKind, reserved: Vec<u64>) -> FileMeta {
        FileMeta {
            name,
            kind,
            len_bytes: 0,
            duration_us: 0,
            blocks: Vec::new(),
            reserved,
            root: Vec::new(),
            finalized: false,
        }
    }

    /// Number of data pages written.
    pub fn pages(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Total blocks charged to this file (written + still reserved).
    pub fn blocks_charged(&self) -> u64 {
        (self.blocks.len() + self.reserved.len()) as u64
    }
}

impl_wire! {
    struct FileMeta {
        name, kind, len_bytes, duration_us, blocks, reserved, root, finalized,
    }
}

/// The in-memory catalog: every file on one disk.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    files: BTreeMap<String, FileMeta>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Looks up a file.
    pub fn get(&self, name: &str) -> Option<&FileMeta> {
        self.files.get(name)
    }

    /// Looks up a file mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut FileMeta> {
        self.files.get_mut(name)
    }

    /// Inserts a new file; the name must be unused.
    pub fn insert(&mut self, meta: FileMeta) -> Result<()> {
        if self.files.contains_key(&meta.name) {
            return Err(Error::AlreadyExists {
                kind: "file",
                name: meta.name,
            });
        }
        self.files.insert(meta.name.clone(), meta);
        Ok(())
    }

    /// Removes a file, returning its metadata (so the caller can free
    /// its blocks).
    pub fn remove(&mut self, name: &str) -> Result<FileMeta> {
        self.files.remove(name).ok_or_else(|| Error::NoSuchContent {
            name: name.to_owned(),
        })
    }

    /// Iterates over all files in name order.
    pub fn iter(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.values()
    }

    /// Serializes the whole catalog.
    pub fn encode(&self) -> Vec<u8> {
        let list: Vec<FileMeta> = self.files.values().cloned().collect();
        list.to_bytes()
    }

    /// Restores a catalog from [`Catalog::encode`] output.
    pub fn decode(buf: &[u8]) -> Result<Catalog> {
        let list = Vec::<FileMeta>::from_bytes(buf).map_err(Error::from)?;
        let mut cat = Catalog::new();
        for meta in list {
            cat.insert(meta)?;
        }
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calliope_types::wire::WireError;
    use proptest::prelude::*;

    fn sample_meta(name: &str) -> FileMeta {
        FileMeta {
            name: name.to_owned(),
            kind: FileKind::IbTree,
            len_bytes: 123_456,
            duration_us: 60_000_000,
            blocks: vec![5, 6, 7, 99],
            reserved: vec![100, 101],
            root: vec![RootEntry {
                first_key: 0,
                page: 3,
            }],
            finalized: false,
        }
    }

    /// Checks a golden table as `calliope_types`' own wire tests do: each
    /// value encodes to exactly its hex and decodes back, every strict
    /// prefix fails, and for a tagged enum (`what`) the smallest unused
    /// first byte fails with `BadTag { what, .. }`.
    fn check_golden<T: Wire + PartialEq + std::fmt::Debug>(
        rows: &[(T, &str)],
        what: Option<&'static str>,
    ) {
        for (v, want) in rows {
            let bytes = v.to_bytes();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            let want: String = want.split_whitespace().collect();
            assert_eq!(got, want, "encoding of {v:?}");
            assert_eq!(&T::from_bytes(&bytes).unwrap(), v);
            for cut in 0..bytes.len() {
                assert!(T::from_bytes(&bytes[..cut]).is_err(), "{v:?} cut at {cut}");
            }
        }
        let Some(what) = what else { return };
        let tag = (0..=u8::MAX)
            .find(|t| rows.iter().all(|(v, _)| v.to_bytes()[0] != *t))
            .unwrap();
        for (v, _) in rows {
            let mut bytes = v.to_bytes();
            bytes[0] = tag;
            assert_eq!(T::from_bytes(&bytes), Err(WireError::BadTag { what, tag }));
        }
    }

    #[test]
    fn meta_round_trip() {
        let m = sample_meta("movie");
        check_golden(
            &[(FileKind::Raw, "00"), (FileKind::IbTree, "01")],
            Some("file kind"),
        );
        check_golden(&[(m.root[0], "00000000000000000300000000000000")], None);
        check_golden(&[(m.clone(), "050000006d6f7669650140e20100000000000087930300000000040000000500\
                                    0000000000000600000000000000070000000000000063000000000000000200\
                                    0000640000000000000065000000000000000100000000000000000000000300\
                                    00000000000000")], None);
        assert_eq!(m.pages(), 4);
        assert_eq!(m.blocks_charged(), 6);
    }

    #[test]
    fn catalog_insert_get_remove() {
        let mut c = Catalog::new();
        c.insert(sample_meta("a")).unwrap();
        c.insert(sample_meta("b")).unwrap();
        assert!(c.insert(sample_meta("a")).is_err(), "duplicate rejected");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap().name, "a");
        assert!(c.get("zzz").is_none());
        let removed = c.remove("a").unwrap();
        assert_eq!(removed.name, "a");
        assert!(c.remove("a").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn catalog_encode_decode() {
        let mut c = Catalog::new();
        for name in ["x", "y", "z"] {
            c.insert(sample_meta(name)).unwrap();
        }
        let back = Catalog::decode(&c.encode()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("y"), c.get("y"));
    }

    #[test]
    fn empty_catalog_round_trips() {
        let c = Catalog::new();
        assert!(Catalog::decode(&c.encode()).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Catalog::decode(&[1, 2, 3]).is_err());
    }

    proptest! {
        #[test]
        fn prop_meta_round_trips(
            name in "[a-z0-9._-]{1,32}",
            len in any::<u64>(),
            blocks in proptest::collection::vec(any::<u64>(), 0..50),
            raw in any::<bool>(),
        ) {
            let m = FileMeta {
                name,
                kind: if raw { FileKind::Raw } else { FileKind::IbTree },
                len_bytes: len,
                duration_us: len / 2,
                blocks,
                reserved: vec![],
                root: vec![],
                finalized: raw,
            };
            prop_assert_eq!(FileMeta::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }
}
