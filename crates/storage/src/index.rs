//! Hash indexes.
//!
//! OLTP transactions in the public benchmarks fetch a small number of tuples
//! by primary key (§5.1), so GPUTx keeps hash indexes on the device alongside
//! the column data. A unique index maps a key to a single row; a non-unique
//! index maps a key to the ordered set of matching rows (e.g. customers by
//! last name in TPC-C, call-forwarding rows by subscriber in TM1).
//!
//! # Host layout
//!
//! An [`IndexKey`] is a prefix-free byte encoding of its values: a tag byte
//! per component, zig-zag varint integers, IEEE-754 bits for doubles and
//! length-prefixed UTF-8 for strings. Encodings of up to 22 bytes live inline
//! in the key (every TM1 and TPC-C key fits, TM1's 15-character `sub_nbr`
//! included); longer ones spill to one boxed slice. A unique index maps a key
//! to a bare [`RowId`]; a non-unique index keeps a key's first row inline and
//! promotes to a `Vec` on the second. Building a key from values or probing
//! with one allocates nothing.
//!
//! Hashing stays keyed (the standard library's `RandomState`): keys come from
//! client parameters off the wire, so an unkeyed hash would let a client
//! choose colliding keys.
//!
//! [`HashIndex::bytes`] is the simulated *device* footprint used by the
//! gpu-sim cost model, not the size of this host layout.

use crate::table::RowId;
use crate::value::Value;
use crate::wire::{WireError, WireReader, WireWriter};
use part::Part;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Longest key encoding stored inline in an [`IndexKey`].
const INLINE_CAP: usize = 22;

// Component tags of the key encoding.
const TAG_INT: u8 = 0;
const TAG_DOUBLE: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_NULL: u8 = 3;

mod part {
    /// A borrowed view of one key component.
    #[derive(Clone, Copy)]
    pub enum Part<'a> {
        Int(i64),
        Double(f64),
        Str(&'a str),
        Null,
    }

    /// The encoding half of [`super::KeyPart`], kept out of the public API.
    pub trait AsPart {
        fn as_part(&self) -> Part<'_>;
    }
}

/// One component of an [`IndexKey`]: the integer, double and string types
/// that convert into a [`Value`], `Value` itself, and references to any of
/// them. Components encode straight into the key, so
/// `IndexKey::single("abc")` builds no `String`.
pub trait KeyPart: part::AsPart {}

impl<T: part::AsPart + ?Sized> KeyPart for T {}

impl part::AsPart for i64 {
    fn as_part(&self) -> Part<'_> {
        Part::Int(*self)
    }
}

impl part::AsPart for i32 {
    fn as_part(&self) -> Part<'_> {
        Part::Int(*self as i64)
    }
}

impl part::AsPart for u64 {
    fn as_part(&self) -> Part<'_> {
        Part::Int(*self as i64)
    }
}

impl part::AsPart for f64 {
    fn as_part(&self) -> Part<'_> {
        Part::Double(*self)
    }
}

impl part::AsPart for str {
    fn as_part(&self) -> Part<'_> {
        Part::Str(self)
    }
}

impl part::AsPart for String {
    fn as_part(&self) -> Part<'_> {
        Part::Str(self)
    }
}

impl part::AsPart for Value {
    fn as_part(&self) -> Part<'_> {
        match self {
            Value::Int(v) => Part::Int(*v),
            Value::Double(v) => Part::Double(*v),
            Value::Str(s) => Part::Str(s),
            Value::Null => Part::Null,
        }
    }
}

impl<T: part::AsPart + ?Sized> part::AsPart for &T {
    fn as_part(&self) -> Part<'_> {
        (**self).as_part()
    }
}

/// Composite index key: one or more column values in an opaque encoding
/// (see the [module docs](self)). Two keys are equal exactly when their
/// values are under [`Value`] equality: `Int(1) != Double(1.0)`, doubles
/// compare bitwise, `Null` equals only `Null`.
#[derive(Clone, Serialize, Deserialize)]
pub struct IndexKey(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    /// Always longer than [`INLINE_CAP`].
    Spilled(Box<[u8]>),
}

impl IndexKey {
    /// Single-column key.
    pub fn single(a: impl KeyPart) -> Self {
        let mut key = KeyBuf::new();
        key.push(a.as_part());
        key.finish()
    }

    /// Two-column composite key.
    pub fn pair(a: impl KeyPart, b: impl KeyPart) -> Self {
        let mut key = KeyBuf::new();
        key.push(a.as_part());
        key.push(b.as_part());
        key.finish()
    }

    /// Three-column composite key.
    pub fn triple(a: impl KeyPart, b: impl KeyPart, c: impl KeyPart) -> Self {
        let mut key = KeyBuf::new();
        key.push(a.as_part());
        key.push(b.as_part());
        key.push(c.as_part());
        key.finish()
    }

    /// Decode the key's column values.
    pub fn values(&self) -> Vec<Value> {
        self.parts()
            .map(|part| match part {
                Part::Int(v) => Value::Int(v),
                Part::Double(v) => Value::Double(v),
                Part::Str(s) => Value::Str(s.to_owned()),
                Part::Null => Value::Null,
            })
            .collect()
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Spilled(bytes) => bytes,
        }
    }

    fn parts(&self) -> Parts<'_> {
        Parts(self.as_bytes())
    }
}

impl<P: KeyPart> FromIterator<P> for IndexKey {
    fn from_iter<I: IntoIterator<Item = P>>(parts: I) -> Self {
        let mut key = KeyBuf::new();
        for p in parts {
            key.push(p.as_part());
        }
        key.finish()
    }
}

impl From<Vec<Value>> for IndexKey {
    fn from(values: Vec<Value>) -> Self {
        values.iter().collect()
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for IndexKey {}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One write of a prefix-free encoding: no length prefix needed.
        state.write(self.as_bytes());
    }
}

impl fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("IndexKey").field(&self.values()).finish()
    }
}

/// One key's encoding under construction: inline until it outgrows
/// [`INLINE_CAP`], then in `spill`.
struct KeyBuf {
    len: usize,
    inline: [u8; INLINE_CAP],
    spill: Vec<u8>,
}

impl KeyBuf {
    fn new() -> Self {
        KeyBuf {
            len: 0,
            inline: [0; INLINE_CAP],
            spill: Vec::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end <= INLINE_CAP {
            self.inline[self.len..end].copy_from_slice(bytes);
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.extend_from_slice(bytes);
        }
        self.len = end;
    }

    fn put_varint(&mut self, mut v: u64) {
        let mut buf = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            buf[n] = v as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        buf[n] = v as u8;
        self.put(&buf[..=n]);
    }

    fn push(&mut self, part: Part<'_>) {
        match part {
            Part::Int(v) => {
                self.put(&[TAG_INT]);
                self.put_varint(((v << 1) ^ (v >> 63)) as u64);
            }
            Part::Double(v) => {
                self.put(&[TAG_DOUBLE]);
                self.put(&v.to_bits().to_le_bytes());
            }
            Part::Str(s) => {
                self.put(&[TAG_STR]);
                self.put_varint(s.len() as u64);
                self.put(s.as_bytes());
            }
            Part::Null => self.put(&[TAG_NULL]),
        }
    }

    fn finish(self) -> IndexKey {
        if self.len <= INLINE_CAP {
            IndexKey(Repr::Inline {
                len: self.len as u8,
                bytes: self.inline,
            })
        } else {
            IndexKey(Repr::Spilled(self.spill.into_boxed_slice()))
        }
    }
}

/// Iterator over the components of an encoded key. The bytes only ever come
/// from [`KeyBuf`], so malformed input is a bug, not an error.
struct Parts<'a>(&'a [u8]);

impl<'a> Parts<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)[0];
            v |= ((byte & 0x7F) as u64) << shift;
            if byte < 0x80 {
                break;
            }
        }
        v
    }
}

impl<'a> Iterator for Parts<'a> {
    type Item = Part<'a>;

    fn next(&mut self) -> Option<Part<'a>> {
        if self.0.is_empty() {
            return None;
        }
        Some(match self.take(1)[0] {
            TAG_INT => {
                let z = self.varint();
                Part::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            TAG_DOUBLE => {
                let bits = self.take(8).try_into().expect("8 bytes");
                Part::Double(f64::from_bits(u64::from_le_bytes(bits)))
            }
            TAG_STR => {
                let len = self.varint() as usize;
                Part::Str(std::str::from_utf8(self.take(len)).expect("keys encode UTF-8"))
            }
            TAG_NULL => Part::Null,
            tag => unreachable!("key encoding has no tag {tag}"),
        })
    }
}

/// Error returned when a unique index would receive a duplicate key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateKey(pub IndexKey);

impl std::fmt::Display for DuplicateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "duplicate key {:?} in unique index", self.0)
    }
}

impl std::error::Error for DuplicateKey {}

/// A hash index over one table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashIndex {
    /// Name of the index.
    pub name: String,
    /// Indices of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    /// Whether keys are unique.
    pub unique: bool,
    entries: Entries,
    /// Bumped on every mutation. Access plans record the version they were
    /// resolved against so stale pre-resolved lookups can be detected and
    /// re-probed (see `gputx_txn::access`).
    version: u64,
}

/// A unique index maps each key to a bare row id; a non-unique one to the
/// key's rows in insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Entries {
    Unique(HashMap<IndexKey, RowId>),
    Multi(HashMap<IndexKey, Rows>),
}

/// The rows of one non-unique key, in insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Rows {
    One(RowId),
    /// Always at least two rows.
    Many(Vec<RowId>),
}

impl Rows {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }
}

/// Two indexes are equal when they index the same columns the same way and
/// hold the same entries; the mutation counter is bookkeeping, not state, so
/// it is excluded (snapshot-equality tests compare databases that arrived at
/// the same entries along different histories).
impl PartialEq for HashIndex {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.unique == other.unique
            && self.entries == other.entries
    }
}

impl HashIndex {
    /// Create an empty index.
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Self {
        HashIndex {
            name: name.into(),
            columns,
            unique,
            entries: if unique {
                Entries::Unique(HashMap::new())
            } else {
                Entries::Multi(HashMap::new())
            },
            version: 0,
        }
    }

    /// Mutation counter: incremented by every [`HashIndex::insert`] and
    /// successful [`HashIndex::remove`]. Used to revalidate pre-resolved
    /// access plans.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Build the key for a full row according to the indexed columns.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        self.columns.iter().map(|&c| &row[c]).collect()
    }

    /// Insert a (key, row) pair.
    pub fn insert(&mut self, key: IndexKey, row: RowId) -> Result<(), DuplicateKey> {
        match &mut self.entries {
            Entries::Unique(map) => match map.entry(key) {
                Entry::Occupied(e) => return Err(DuplicateKey(e.key().clone())),
                Entry::Vacant(e) => {
                    e.insert(row);
                }
            },
            Entries::Multi(map) => match map.entry(key) {
                Entry::Occupied(mut e) => {
                    let rows = e.get_mut();
                    match rows {
                        Rows::One(first) => *rows = Rows::Many(vec![*first, row]),
                        Rows::Many(many) => many.push(row),
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(Rows::One(row));
                }
            },
        }
        self.version += 1;
        Ok(())
    }

    /// Look up the single row for a key in a unique index.
    pub fn get_unique(&self, key: &IndexKey) -> Option<RowId> {
        self.get(key).first().copied()
    }

    /// Look up all rows for a key.
    pub fn get(&self, key: &IndexKey) -> &[RowId] {
        let rows = match &self.entries {
            Entries::Unique(map) => map.get(key).map(std::slice::from_ref),
            Entries::Multi(map) => map.get(key).map(Rows::as_slice),
        };
        rows.unwrap_or(&[])
    }

    /// Remove one (key, row) pair. Returns true if it was present.
    pub fn remove(&mut self, key: &IndexKey, row: RowId) -> bool {
        match &mut self.entries {
            Entries::Unique(map) => {
                if map.get(key) != Some(&row) {
                    return false;
                }
                map.remove(key);
            }
            Entries::Multi(map) => {
                let Some(rows) = map.get_mut(key) else {
                    return false;
                };
                match rows {
                    Rows::One(only) if *only == row => {
                        map.remove(key);
                    }
                    Rows::One(_) => return false,
                    Rows::Many(many) => {
                        let Some(pos) = many.iter().position(|&r| r == row) else {
                            return false;
                        };
                        many.remove(pos);
                        if let [last] = many[..] {
                            *rows = Rows::One(last);
                        }
                    }
                }
            }
        }
        self.version += 1;
        true
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        match &self.entries {
            Entries::Unique(map) => map.len(),
            Entries::Multi(map) => map.len(),
        }
    }

    /// Every (key, rows) entry, in hash-map order.
    fn for_each_entry(&self, mut f: impl FnMut(&IndexKey, &[RowId])) {
        match &self.entries {
            Entries::Unique(map) => map.iter().for_each(|(k, r)| f(k, std::slice::from_ref(r))),
            Entries::Multi(map) => map.iter().for_each(|(k, r)| f(k, r.as_slice())),
        }
    }

    /// Approximate device-memory footprint of the index in bytes (the gpu-sim
    /// model, not the host layout).
    pub fn bytes(&self) -> u64 {
        // Bucket array + one 8-byte key hash and 8-byte row id per entry.
        let mut entries = 0u64;
        self.for_each_entry(|_, rows| entries += rows.len() as u64);
        16 * entries + 8 * self.num_keys() as u64
    }

    /// Encode the index definition and entries for checkpointing. Keys are
    /// written as their [`Value`]s, not in the in-memory key encoding.
    /// Hash-map iteration order varies run to run, but equality over decoded
    /// indexes is content-based, so the byte order is immaterial.
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        w.put_len(self.columns.len());
        for &c in &self.columns {
            w.put_len(c);
        }
        w.put_u8(self.unique as u8);
        w.put_len(self.num_keys());
        self.for_each_entry(|key, rows| {
            let values = key.values();
            w.put_len(values.len());
            for v in &values {
                w.put_value(v);
            }
            w.put_len(rows.len());
            for &row in rows {
                w.put_u64(row);
            }
        });
    }

    /// Decode an index encoded by [`HashIndex::encode_into`]. The mutation
    /// counter restarts at zero — it is bookkeeping for access-plan
    /// revalidation within one engine run, not persistent state (and it is
    /// excluded from equality for the same reason).
    pub(crate) fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = r.get_str()?;
        let n_cols = r.get_len()?;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            columns.push(r.get_len()?);
        }
        let unique = r.get_u8()? != 0;
        let n_entries = r.get_len()?;
        let mut entries = if unique {
            Entries::Unique(HashMap::with_capacity(n_entries))
        } else {
            Entries::Multi(HashMap::with_capacity(n_entries))
        };
        for _ in 0..n_entries {
            let key_len = r.get_len()?;
            let mut key = Vec::with_capacity(key_len);
            for _ in 0..key_len {
                key.push(r.get_value()?);
            }
            let key = IndexKey::from(key);
            let n_rows = r.get_len()?;
            if unique && n_rows > 1 {
                return Err(WireError::Invalid(format!(
                    "unique index {name} decodes {n_rows} rows for one key"
                )));
            }
            if n_rows == 0 {
                return Err(WireError::Invalid(format!(
                    "index {name} decodes a key with no rows"
                )));
            }
            let first = r.get_u64()?;
            let fresh = match &mut entries {
                Entries::Unique(map) => map.insert(key, first).is_none(),
                Entries::Multi(map) => {
                    let rows = if n_rows == 1 {
                        Rows::One(first)
                    } else {
                        let mut rows = Vec::with_capacity(n_rows);
                        rows.push(first);
                        for _ in 1..n_rows {
                            rows.push(r.get_u64()?);
                        }
                        Rows::Many(rows)
                    };
                    map.insert(key, rows).is_none()
                }
            };
            if !fresh {
                return Err(WireError::Invalid(format!(
                    "index {name} decodes one key twice"
                )));
            }
        }
        Ok(HashIndex {
            name,
            columns,
            unique,
            entries,
            version: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    #[test]
    fn unique_index_round_trip() {
        let mut idx = HashIndex::new("pk", vec![0], true);
        idx.insert(IndexKey::single(5i64), 0).unwrap();
        idx.insert(IndexKey::single(9i64), 1).unwrap();
        assert_eq!(idx.get_unique(&IndexKey::single(5i64)), Some(0));
        assert_eq!(idx.get_unique(&IndexKey::single(7i64)), None);
        assert_eq!(
            idx.insert(IndexKey::single(5i64), 2),
            Err(DuplicateKey(IndexKey::single(5i64)))
        );
        assert_eq!(idx.get(&IndexKey::single(5i64)), &[0]);
        assert_eq!(idx.num_keys(), 2);
    }

    #[test]
    fn non_unique_index_collects_rows() {
        let mut idx = HashIndex::new("by_name", vec![1], false);
        idx.insert(IndexKey::single("smith"), 3).unwrap();
        idx.insert(IndexKey::single("smith"), 7).unwrap();
        idx.insert(IndexKey::single("jones"), 1).unwrap();
        assert_eq!(idx.get(&IndexKey::single("smith")), &[3, 7]);
        assert_eq!(idx.get(&IndexKey::single("none")), &[] as &[RowId]);
    }

    #[test]
    fn remove_deletes_entries() {
        let mut idx = HashIndex::new("i", vec![0], false);
        idx.insert(IndexKey::single(1i64), 10).unwrap();
        idx.insert(IndexKey::single(1i64), 11).unwrap();
        assert!(idx.remove(&IndexKey::single(1i64), 10));
        assert!(!idx.remove(&IndexKey::single(1i64), 10));
        assert_eq!(idx.get(&IndexKey::single(1i64)), &[11]);
        assert!(idx.remove(&IndexKey::single(1i64), 11));
        assert_eq!(idx.num_keys(), 0);
    }

    #[test]
    fn unique_remove_needs_the_matching_row() {
        let mut idx = HashIndex::new("pk", vec![0], true);
        idx.insert(IndexKey::single(1i64), 10).unwrap();
        let v = idx.version();
        assert!(!idx.remove(&IndexKey::single(1i64), 11));
        assert!(!idx.remove(&IndexKey::single(2i64), 10));
        assert_eq!(idx.version(), v, "a failed remove is not a mutation");
        assert!(idx.remove(&IndexKey::single(1i64), 10));
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.version(), v + 1);
    }

    #[test]
    fn non_unique_rows_keep_insertion_order_through_promotion_and_remove() {
        let key = IndexKey::pair(4i64, "x");
        let mut idx = HashIndex::new("i", vec![0, 1], false);
        idx.insert(key.clone(), 7).unwrap();
        let rows = |idx: &HashIndex| idx.get(&key).to_vec();
        assert_eq!(rows(&idx), [7]);
        for row in [3, 9, 5] {
            idx.insert(key.clone(), row).unwrap();
        }
        assert_eq!(rows(&idx), [7, 3, 9, 5], "one → many keeps order");
        assert!(idx.remove(&key, 9));
        assert_eq!(rows(&idx), [7, 3, 5], "a middle remove keeps order");
        assert!(idx.remove(&key, 7));
        assert!(idx.remove(&key, 5));
        assert_eq!(rows(&idx), [3], "many → one");
        assert!(matches!(&idx.entries, Entries::Multi(m) if m[&key] == Rows::One(3)));
        idx.insert(key.clone(), 1).unwrap();
        assert_eq!(rows(&idx), [3, 1], "re-promotion appends");
        assert!(idx.remove(&key, 3) && idx.remove(&key, 1));
        assert_eq!(idx.num_keys(), 0);
    }

    #[test]
    fn composite_keys() {
        let mut idx = HashIndex::new("pk", vec![0, 1], true);
        idx.insert(IndexKey::pair(1i64, 2i64), 0).unwrap();
        idx.insert(IndexKey::pair(1i64, 3i64), 1).unwrap();
        assert_eq!(idx.get_unique(&IndexKey::pair(1i64, 3i64)), Some(1));
        let key3 = IndexKey::triple(1i64, 2i64, 3i64);
        assert_eq!(key3.values().len(), 3);
    }

    #[test]
    fn key_of_extracts_indexed_columns() {
        let idx = HashIndex::new("pk", vec![2, 0], true);
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(
            idx.key_of(&row),
            IndexKey::from(vec![Value::Int(3), Value::Int(1)])
        );
    }

    #[test]
    fn bytes_grow_with_entries() {
        let mut idx = HashIndex::new("i", vec![0], false);
        let empty = idx.bytes();
        for i in 0..100i64 {
            idx.insert(IndexKey::single(i), i as RowId).unwrap();
        }
        assert!(idx.bytes() > empty);
    }

    #[test]
    fn bytes_model_prices_rows_and_keys() {
        let mut idx = HashIndex::new("i", vec![0], false);
        for row in 0..5 {
            idx.insert(IndexKey::single(row as i64 % 2), row).unwrap();
        }
        assert_eq!(idx.bytes(), 16 * 5 + 8 * 2);
    }

    #[test]
    fn keys_are_24_bytes_and_benchmark_keys_stay_inline() {
        assert_eq!(std::mem::size_of::<IndexKey>(), 24);
        let inline = |k: &IndexKey| matches!(k.0, Repr::Inline { .. });
        // TM1 `sub_nbr`, TPC-C customer-by-last-name with a 16-byte name and
        // a large order id triple.
        assert!(inline(&IndexKey::single(format!("{:015}", 99_999))));
        assert!(inline(&IndexKey::triple(63i64, 10i64, "OUGHTPRICALLYXYZ")));
        assert!(inline(&IndexKey::triple(100i64, 10i64, 3_000_000i64)));
    }

    #[test]
    fn inline_capacity_boundary() {
        // A single string component costs tag + length byte + its bytes.
        let at = "a".repeat(INLINE_CAP - 2);
        let past = "a".repeat(INLINE_CAP - 1);
        let (k_at, k_past) = (IndexKey::single(at.as_str()), IndexKey::single(&past));
        assert!(matches!(k_at.0, Repr::Inline { len, .. } if len as usize == INLINE_CAP));
        assert!(matches!(&k_past.0, Repr::Spilled(b) if b.len() == INLINE_CAP + 1));
        assert_ne!(k_at, k_past);
        assert_eq!(k_past, IndexKey::from(vec![Value::Str(past.clone())]));
        assert_eq!(k_past.values(), vec![Value::Str(past)]);
        // A key that spills mid-component.
        let long = IndexKey::pair(i64::MIN, "b".repeat(40));
        assert_eq!(
            long.values(),
            vec![Value::Int(i64::MIN), Value::Str("b".repeat(40))]
        );
    }

    #[test]
    fn probes_by_borrowed_and_owned_parts_agree() {
        let (one, s, d) = (Value::Int(1), String::from("s"), Value::Double(2.5));
        let borrowed = IndexKey::triple(&one, &s, &d);
        assert_eq!(borrowed, IndexKey::triple(one, s, d));
        assert_eq!(borrowed, IndexKey::triple(1i32, "s", 2.5f64));
        assert_eq!(borrowed, IndexKey::triple(1u64, "s", 2.5f64));
        assert_eq!(
            format!("{borrowed:?}"),
            r#"IndexKey([Int(1), Str("s"), Double(2.5)])"#
        );
    }

    /// One key component, biased toward the cases an encoding can get wrong.
    fn value() -> impl Strategy<Value = Value> {
        (0u8..14, 0u64..u64::MAX).prop_map(|(kind, bits)| match kind {
            0 => Value::Int(bits as i64),
            1 => Value::Int(i64::MIN),
            2 => Value::Int(i64::MAX),
            // Small ints and doubles of equal magnitude.
            3 => Value::Int((bits % 3) as i64 - 1),
            4 => Value::Double((bits % 3) as f64 - 1.0),
            5 => Value::Double(if bits & 1 == 0 { 0.0 } else { -0.0 }),
            // NaNs with varying payloads (and sign).
            6 => Value::Double(f64::from_bits(
                0x7FF0_0000_0000_0001 | (bits & 0x800F_FFFF_FFFF_FFFE),
            )),
            7 => Value::Double(f64::from_bits(bits)),
            8 => Value::Null,
            9 => Value::Str(String::new()),
            // Alone in a key these end one byte before, exactly at, and one
            // byte past the inline capacity.
            10 => Value::Str("z".repeat(INLINE_CAP - 3 + (bits % 3) as usize)),
            11 => Value::Str("é".repeat(1 + (bits % 12) as usize)),
            _ => Value::Str("ab"[..(bits % 3) as usize].to_string()),
        })
    }

    /// A pair of key value lists: equal, one component apart, or unrelated.
    fn key_pair() -> impl Strategy<Value = (Vec<Value>, Vec<Value>)> {
        (
            prop::collection::vec(value(), 0..4),
            prop::collection::vec(value(), 0..4),
            0u8..3,
            value(),
        )
            .prop_map(|(a, b, mode, swap)| match mode {
                0 => (a.clone(), a),
                1 if !a.is_empty() => {
                    let mut b = a.clone();
                    let i = b.len() - 1;
                    b[i] = swap;
                    (a, b)
                }
                _ => (a, b),
            })
    }

    proptest! {
        #[test]
        fn key_encoding_is_exact_value_equality(pairs in prop::collection::vec(key_pair(), 64)) {
            let state = std::collections::hash_map::RandomState::new();
            for (a, b) in pairs {
                let (ka, kb) = (IndexKey::from(a.clone()), IndexKey::from(b.clone()));
                prop_assert_eq!(ka == kb, a == b, "{:?} vs {:?}", a, b);
                if ka == kb {
                    prop_assert_eq!(state.hash_one(&ka), state.hash_one(&kb));
                }
                prop_assert_eq!(ka.values(), a.clone());
                prop_assert_eq!(kb.values(), b);
                if let [x, y] = &a[..] {
                    prop_assert_eq!(IndexKey::pair(x, y), ka);
                }
            }
        }
    }
}
