//! What an index stores: the [`Object`] trait, and binary object encoding.
//!
//! An object is owned (`Vec<f32>`, `String`) where it crosses the API — a
//! query, an insert, [`MetricIndex::get`](crate::MetricIndex::get) — and
//! borrowed as its **view** (`[f32]`, `str`, its `Deref` target) where it is
//! stored and measured: a [`Metric`](crate::Metric) takes views, and an
//! [`ObjTable`](crate::ObjTable) keeps its objects in the object's own
//! [`Arena`] and hands out views of it. `&Vec<f32>` coerces to `&[f32]`, so
//! a distance between two owned objects is the same call as between two
//! stored ones.
//!
//! The disk-resident indexes of the paper (§5) store objects either in a
//! random access file (OmniR-tree, M-index, SPB-tree) or inline in tree
//! nodes (CPT, PM-tree). Both paths serialize objects through
//! [`EncodeObject`] so that storage sizes and page layouts are realistic.

use crate::cow::CowVec;
use crate::table::{Arena, Flat};
use std::ops::Deref;

/// An object type an index stores: owned, it derefs to its view, and the
/// view copies back into it.
pub trait Object:
    EncodeObject + Deref<Target: ToOwned<Owned = Self> + Send + Sync> + Clone + Send + Sync + 'static
{
    /// Where an [`ObjTable`](crate::ObjTable) keeps these objects.
    type Arena: Arena<Self::Target>;

    /// Bytes [`EncodeObject::encoded_len`] counts for the object `v` is a
    /// view of: what `storage()` counts per stored object.
    fn encoded_len_of(v: &Self::Target) -> usize;
}

impl Object for Vec<f32> {
    type Arena = Flat;

    fn encoded_len_of(v: &[f32]) -> usize {
        4 + 4 * v.len()
    }
}

impl Object for String {
    type Arena = Strings;

    fn encoded_len_of(v: &str) -> usize {
        4 + v.len()
    }
}

/// The string arena: one `String` a slot. Strings have no fixed width to
/// pack by; the words corpora are small.
#[derive(Clone, Debug, Default)]
pub struct Strings(CowVec<String>);

impl Arena<str> for Strings {
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn get(&self, slot: usize) -> &str {
        &self.0[slot]
    }

    fn push(&mut self, v: &str) {
        self.0.push(v.to_owned());
    }

    fn drain(self, mut f: impl FnMut(&str)) {
        self.0.drain_chunks(|c| c.iter().for_each(|s| f(s)));
    }
}

/// Fixed, self-describing little-endian binary encoding for index objects.
pub trait EncodeObject: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes an object from `buf`, returning the object and the number of
    /// bytes consumed. Panics on malformed input (encodings are produced by
    /// this crate only).
    fn decode_from(buf: &[u8]) -> (Self, usize);

    /// Number of bytes [`EncodeObject::encode_into`] will append.
    fn encoded_len(&self) -> usize;

    /// Convenience: encode to a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut v);
        v
    }
}

impl EncodeObject for Vec<f32> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for x in self {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn decode_from(buf: &[u8]) -> (Self, usize) {
        let n = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let mut v = Vec::with_capacity(n);
        let mut off = 4;
        for _ in 0..n {
            v.push(f32::from_le_bytes(buf[off..off + 4].try_into().unwrap()));
            off += 4;
        }
        (v, off)
    }

    fn encoded_len(&self) -> usize {
        4 + 4 * self.len()
    }
}

impl EncodeObject for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_from(buf: &[u8]) -> (Self, usize) {
        let n = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let s = std::str::from_utf8(&buf[4..4 + n])
            .expect("corrupt string encoding")
            .to_owned();
        (s, 4 + n)
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// Encodes a slice of `f64` distances (pre-computed pivot distances stored
/// alongside objects in RAFs, §5.3).
pub fn encode_f64s(xs: &[f64], out: &mut Vec<u8>) {
    out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Decodes a slice previously written by [`encode_f64s`]; returns the values
/// and bytes consumed.
pub fn decode_f64s(buf: &[u8]) -> (Vec<f64>, usize) {
    let n = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let mut v = Vec::with_capacity(n);
    let mut off = 4;
    for _ in 0..n {
        v.push(f64::from_le_bytes(buf[off..off + 8].try_into().unwrap()));
        off += 8;
    }
    (v, off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_roundtrip() {
        let v = vec![1.5f32, -2.25, 0.0, 1e9];
        let enc = v.encode();
        assert_eq!(enc.len(), v.encoded_len());
        let (back, used) = Vec::<f32>::decode_from(&enc);
        assert_eq!(back, v);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn string_roundtrip() {
        for s in ["", "a", "defoliate", "naïve-ütf8"] {
            let s = s.to_owned();
            let enc = s.encode();
            assert_eq!(enc.len(), s.encoded_len());
            let (back, used) = String::decode_from(&enc);
            assert_eq!(back, s);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn f64s_roundtrip() {
        let xs = [0.0, -1.5, 3.25, f64::MAX];
        let mut buf = Vec::new();
        encode_f64s(&xs, &mut buf);
        let (back, used) = decode_f64s(&buf);
        assert_eq!(back, xs);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn concatenated_decoding() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32];
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let (da, used) = Vec::<f32>::decode_from(&buf);
        let (db, _) = Vec::<f32>::decode_from(&buf[used..]);
        assert_eq!(da, a);
        assert_eq!(db, b);
    }
}
