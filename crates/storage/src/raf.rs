//! Random access file (RAF) over the simulated disk.
//!
//! The Omni-family, M-index and SPB-tree keep objects in a separate RAF "in
//! order to avoid the impact of the object size" on the index structure
//! (paper §5.2). Records are appended; a small in-memory directory maps
//! record ids to byte ranges. Records never span a page unless they are
//! larger than one page — the paper notes the resulting per-page waste for
//! large objects (§6.2 "storage" discussion of Color).

use crate::disk::{DiskSim, PageId};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
struct RecordLoc {
    offset: u64,
    len: u32,
}

/// An append-oriented record file with random access by record id.
pub struct Raf {
    disk: DiskSim,
    directory: HashMap<u64, RecordLoc>,
    /// Pages backing this RAF in order.
    pages: Vec<PageId>,
    /// Next free byte offset within the logical file.
    tail: u64,
    /// Bytes of live records (excludes padding and deleted records).
    live_bytes: u64,
}

impl Raf {
    /// Creates an empty RAF on `disk`.
    pub fn new(disk: DiskSim) -> Self {
        Raf {
            disk,
            directory: HashMap::new(),
            pages: Vec::new(),
            tail: 0,
            live_bytes: 0,
        }
    }

    /// This file re-pointed at `disk`, a [`DiskSim::fork`] of its own
    /// disk: same pages, a clone of the directory, independent afterwards.
    pub fn fork_onto(&self, disk: &DiskSim) -> Self {
        Raf {
            disk: disk.clone(),
            directory: self.directory.clone(),
            pages: self.pages.clone(),
            tail: self.tail,
            live_bytes: self.live_bytes,
        }
    }

    /// The underlying disk handle.
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the RAF holds no records.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Bytes occupied on disk (whole pages).
    pub fn disk_bytes(&self) -> u64 {
        (self.pages.len() * self.disk.page_size()) as u64
    }

    /// Bytes of live record payload.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Appends a record under `id`. Panics if `id` is already present.
    pub fn append(&mut self, id: u64, record: &[u8]) {
        assert!(
            !self.directory.contains_key(&id),
            "record {id} already in RAF"
        );
        let ps = self.disk.page_size() as u64;
        let len = record.len() as u64;
        // Records up to one page never straddle a page boundary.
        if len <= ps {
            let room = ps - (self.tail % ps);
            if room < len {
                self.tail += room; // pad to the next page
            }
        } else if !self.tail.is_multiple_of(ps) {
            self.tail += ps - (self.tail % ps);
        }
        let offset = self.tail;
        self.ensure_pages(offset + len);
        self.write_span(offset, record);
        self.tail = offset + len;
        self.directory.insert(
            id,
            RecordLoc {
                offset,
                len: record.len() as u32,
            },
        );
        self.live_bytes += len;
    }

    /// Reads the record stored under `id` (counted page reads), or `None`.
    pub fn read(&self, id: u64) -> Option<Vec<u8>> {
        let loc = *self.directory.get(&id)?;
        Some(self.read_span(loc.offset, loc.len as usize))
    }

    /// Removes a record (space is not reclaimed, matching an append-only
    /// data file with a tombstoning directory). Returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        if let Some(loc) = self.directory.remove(&id) {
            self.live_bytes -= loc.len as u64;
            true
        } else {
            false
        }
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.directory.contains_key(&id)
    }

    /// Ids of all live records (unordered).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory.keys().copied()
    }

    fn ensure_pages(&mut self, upto: u64) {
        let ps = self.disk.page_size() as u64;
        while (self.pages.len() as u64) * ps < upto {
            self.pages.push(self.disk.alloc());
        }
    }

    fn write_span(&mut self, offset: u64, data: &[u8]) {
        let ps = self.disk.page_size();
        let mut written = 0usize;
        while written < data.len() {
            let abs = offset as usize + written;
            let page_idx = abs / ps;
            let in_page = abs % ps;
            let chunk = (ps - in_page).min(data.len() - written);
            let pid = self.pages[page_idx];
            // Read-modify-write; the read is part of the write cost here,
            // so bypass the counter by reconstructing from the cache-free
            // path: a fresh page that is fully overwritten needs no read.
            let mut page = if in_page == 0 && chunk == ps {
                vec![0u8; ps]
            } else {
                self.disk.read(pid).to_vec()
            };
            page[in_page..in_page + chunk].copy_from_slice(&data[written..written + chunk]);
            self.disk.write(pid, &page);
            written += chunk;
        }
    }

    fn read_span(&self, offset: u64, len: usize) -> Vec<u8> {
        let ps = self.disk.page_size();
        let mut out = Vec::with_capacity(len);
        let mut read = 0usize;
        while read < len {
            let abs = offset as usize + read;
            let page_idx = abs / ps;
            let in_page = abs % ps;
            let chunk = (ps - in_page).min(len - read);
            let page = self.disk.read(self.pages[page_idx]);
            out.extend_from_slice(&page[in_page..in_page + chunk]);
            read += chunk;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raf(page: usize) -> Raf {
        Raf::new(DiskSim::new(page))
    }

    #[test]
    fn append_read_roundtrip() {
        let mut r = raf(128);
        r.append(1, b"hello");
        r.append(2, b"world!");
        assert_eq!(r.read(1).unwrap(), b"hello");
        assert_eq!(r.read(2).unwrap(), b"world!");
        assert_eq!(r.read(3), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn records_do_not_straddle_pages() {
        let mut r = raf(128);
        // Two 100-byte records cannot share a 128-byte page.
        r.append(1, &[1u8; 100]);
        r.append(2, &[2u8; 100]);
        assert_eq!(r.read(2).unwrap(), vec![2u8; 100]);
        r.disk().reset_counters();
        let _ = r.read(2).unwrap();
        assert_eq!(r.disk().reads(), 1, "one record = one page read");
    }

    #[test]
    fn oversized_records_span_pages() {
        let mut r = raf(128);
        let big = vec![7u8; 300];
        r.append(1, &big);
        assert_eq!(r.read(1).unwrap(), big);
        r.disk().reset_counters();
        let _ = r.read(1).unwrap();
        assert_eq!(r.disk().reads(), 3, "300 bytes over 128-byte pages");
    }

    #[test]
    fn remove_tombstones() {
        let mut r = raf(128);
        r.append(1, b"abc");
        assert!(r.remove(1));
        assert!(!r.remove(1));
        assert_eq!(r.read(1), None);
        assert_eq!(r.live_bytes(), 0);
        // Space not reclaimed but id can't be reused accidentally.
        r.append(1, b"xyz");
        assert_eq!(r.read(1).unwrap(), b"xyz");
    }

    #[test]
    #[should_panic]
    fn duplicate_id_panics() {
        let mut r = raf(128);
        r.append(1, b"a");
        r.append(1, b"b");
    }

    #[test]
    fn many_records() {
        let mut r = raf(256);
        for i in 0..200u64 {
            r.append(i, format!("record-{i}").as_bytes());
        }
        for i in (0..200u64).rev() {
            assert_eq!(r.read(i).unwrap(), format!("record-{i}").as_bytes());
        }
    }
}
