//! Typed columnar storage with optional validity (NULL) masks.
//!
//! A [`Column`] is the tail of a MonetDB BAT: a dense, typed vector. The
//! head (OID) column is virtual — a position *is* its OID — which is what
//! makes positional tuple reconstruction across aligned columns free.
//!
//! Payloads are `Arc`-backed and copy-on-write: `Column::clone` (and hence
//! `Relation::clone`) is a refcount bump per column, so snapshotting a
//! basket costs O(width) instead of O(rows × width). Mutation goes through
//! [`Arc::make_mut`], which deep-copies only when the payload is shared —
//! a clone therefore behaves as an immutable snapshot of the column at
//! clone time, no matter what happens to the source afterwards.

use std::sync::Arc;

use crate::bitset::Bitset;
use crate::error::{MonetError, Result};
use crate::selvec::SelVec;
use crate::value::{Value, ValueType};

/// Physical storage for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<String>),
    Ts(Vec<i64>),
}

impl ColumnData {
    fn new(vtype: ValueType) -> Self {
        match vtype {
            ValueType::Bool => ColumnData::Bool(Vec::new()),
            ValueType::Int => ColumnData::Int(Vec::new()),
            ValueType::Double => ColumnData::Double(Vec::new()),
            ValueType::Str => ColumnData::Str(Vec::new()),
            ValueType::Ts => ColumnData::Ts(Vec::new()),
        }
    }

    fn with_capacity(vtype: ValueType, cap: usize) -> Self {
        match vtype {
            ValueType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            ValueType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            ValueType::Double => ColumnData::Double(Vec::with_capacity(cap)),
            ValueType::Str => ColumnData::Str(Vec::with_capacity(cap)),
            ValueType::Ts => ColumnData::Ts(Vec::with_capacity(cap)),
        }
    }

    /// A deep copy with room for `cap` rows.
    fn copy_with_capacity(&self, cap: usize) -> Self {
        fn copy<T: Clone>(v: &[T], cap: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(cap);
            out.extend_from_slice(v);
            out
        }
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(copy(v, cap)),
            ColumnData::Int(v) => ColumnData::Int(copy(v, cap)),
            ColumnData::Double(v) => ColumnData::Double(copy(v, cap)),
            ColumnData::Str(v) => ColumnData::Str(copy(v, cap)),
            ColumnData::Ts(v) => ColumnData::Ts(copy(v, cap)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Ts(v) => v.len(),
        }
    }

    fn vtype(&self) -> ValueType {
        match self {
            ColumnData::Bool(_) => ValueType::Bool,
            ColumnData::Int(_) => ValueType::Int,
            ColumnData::Double(_) => ValueType::Double,
            ColumnData::Str(_) => ValueType::Str,
            ColumnData::Ts(_) => ValueType::Ts,
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Int(v) => v.clear(),
            ColumnData::Double(v) => v.clear(),
            ColumnData::Str(v) => v.clear(),
            ColumnData::Ts(v) => v.clear(),
        }
    }
}

/// A typed column with an optional validity mask.
///
/// `validity == None` means "no NULLs"; the mask is materialized lazily on
/// the first NULL append so the common all-valid path stays mask-free.
///
/// Cloning is O(1): payload and mask are shared behind `Arc`s until either
/// side mutates (copy-on-write).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Arc<Bitset>>,
}

impl Column {
    /// New empty column of the given type.
    pub fn new(vtype: ValueType) -> Self {
        Column {
            data: Arc::new(ColumnData::new(vtype)),
            validity: None,
        }
    }

    /// New empty column with reserved capacity.
    pub fn with_capacity(vtype: ValueType, cap: usize) -> Self {
        Column {
            data: Arc::new(ColumnData::with_capacity(vtype, cap)),
            validity: None,
        }
    }

    pub fn from_ints(v: Vec<i64>) -> Self {
        Column {
            data: Arc::new(ColumnData::Int(v)),
            validity: None,
        }
    }

    pub fn from_doubles(v: Vec<f64>) -> Self {
        Column {
            data: Arc::new(ColumnData::Double(v)),
            validity: None,
        }
    }

    pub fn from_bools(v: Vec<bool>) -> Self {
        Column {
            data: Arc::new(ColumnData::Bool(v)),
            validity: None,
        }
    }

    pub fn from_strs(v: Vec<String>) -> Self {
        Column {
            data: Arc::new(ColumnData::Str(v)),
            validity: None,
        }
    }

    pub fn from_ts(v: Vec<i64>) -> Self {
        Column {
            data: Arc::new(ColumnData::Ts(v)),
            validity: None,
        }
    }

    /// Build a column of `vtype` from boxed values, NULLs allowed.
    pub fn from_values(vtype: ValueType, values: &[Value]) -> Result<Self> {
        let mut col = Column::with_capacity(vtype, values.len());
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// Construct from raw parts. The validity mask, when present, must have
    /// the same length as the data.
    pub fn from_parts(data: ColumnData, validity: Option<Bitset>) -> Result<Self> {
        if let Some(mask) = &validity {
            if mask.len() != data.len() {
                return Err(MonetError::LengthMismatch {
                    op: "from_parts",
                    left: data.len(),
                    right: mask.len(),
                });
            }
            if mask.all_set() {
                return Ok(Column {
                    data: Arc::new(data),
                    validity: None,
                });
            }
        }
        Ok(Column {
            data: Arc::new(data),
            validity: validity.map(Arc::new),
        })
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn vtype(&self) -> ValueType {
        self.data.vtype()
    }

    /// Number of NULLs.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |m| m.count_zeros())
    }

    /// Is position `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_deref().is_none_or(|m| m.get(i))
    }

    /// Whether this column shares its payload storage with `other` (i.e.
    /// both are copy-on-write views of the same allocation). Diagnostic
    /// hook for the zero-copy snapshot tests and benches.
    pub fn shares_data(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Whether the payload is shared with a clone (a snapshot), so the
    /// next in-place mutation deep-copies it first.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Exclusive handle to the payload; deep-copies first if shared.
    fn data_mut(&mut self) -> &mut ColumnData {
        Arc::make_mut(&mut self.data)
    }

    fn ensure_mask(&mut self) -> &mut Bitset {
        let len = self.len();
        Arc::make_mut(
            self.validity
                .get_or_insert_with(|| Arc::new(Bitset::filled(len, true))),
        )
    }

    /// Append one value; NULLs store a type-default payload and clear the
    /// validity bit. Type mismatches are errors.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if value.is_null() {
            // Mask first: ensure_mask sizes itself off the current length,
            // which must not yet include the new slot.
            self.ensure_mask().push(false);
            match self.data_mut() {
                ColumnData::Bool(v) => v.push(false),
                ColumnData::Int(v) => v.push(0),
                ColumnData::Double(v) => v.push(0.0),
                ColumnData::Str(v) => v.push(String::new()),
                ColumnData::Ts(v) => v.push(0),
            }
            return Ok(());
        }
        if !matches!(
            (self.vtype(), value.value_type()),
            (ValueType::Bool, Some(ValueType::Bool))
                | (ValueType::Int, Some(ValueType::Int))
                | (ValueType::Double, Some(ValueType::Double))
                | (ValueType::Double, Some(ValueType::Int))
                | (ValueType::Str, Some(ValueType::Str))
                | (ValueType::Ts, Some(ValueType::Ts))
                | (ValueType::Ts, Some(ValueType::Int))
                | (ValueType::Int, Some(ValueType::Ts))
        ) {
            // Reject before data_mut so a shared payload is not deep-copied
            // just to report a type error.
            return Err(MonetError::TypeMismatch {
                op: "push",
                expected: self.vtype(),
                found: value.value_type().unwrap_or(ValueType::Bool),
            });
        }
        match (self.data_mut(), &value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColumnData::Int(v), Value::Int(i)) => v.push(*i),
            (ColumnData::Double(v), Value::Double(d)) => v.push(*d),
            (ColumnData::Double(v), Value::Int(i)) => v.push(*i as f64),
            (ColumnData::Str(v), Value::Str(s)) => v.push(s.clone()),
            (ColumnData::Ts(v), Value::Ts(t)) => v.push(*t),
            (ColumnData::Ts(v), Value::Int(t)) => v.push(*t),
            (ColumnData::Int(v), Value::Ts(t)) => v.push(*t),
            // the matches! above should have rejected everything else;
            // degrade to the typed error (not a panic) if the two tables
            // ever drift
            _ => {
                return Err(MonetError::TypeMismatch {
                    op: "push",
                    expected: self.vtype(),
                    found: value.value_type().unwrap_or(ValueType::Bool),
                })
            }
        }
        if let Some(mask) = &mut self.validity {
            Arc::make_mut(mask).push(true);
        }
        Ok(())
    }

    /// Read position `i` as a boxed value.
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &*self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Ts(v) => Value::Ts(v[i]),
        }
    }

    /// Typed slice accessors — the vectorized operators go through these.
    pub fn ints(&self) -> Result<&[i64]> {
        match &*self.data {
            ColumnData::Int(v) | ColumnData::Ts(v) => Ok(v),
            _ => Err(MonetError::TypeMismatch {
                op: "ints",
                expected: ValueType::Int,
                found: self.vtype(),
            }),
        }
    }

    pub fn doubles(&self) -> Result<&[f64]> {
        match &*self.data {
            ColumnData::Double(v) => Ok(v),
            _ => Err(MonetError::TypeMismatch {
                op: "doubles",
                expected: ValueType::Double,
                found: self.vtype(),
            }),
        }
    }

    pub fn bools(&self) -> Result<&[bool]> {
        match &*self.data {
            ColumnData::Bool(v) => Ok(v),
            _ => Err(MonetError::TypeMismatch {
                op: "bools",
                expected: ValueType::Bool,
                found: self.vtype(),
            }),
        }
    }

    pub fn strs(&self) -> Result<&[String]> {
        match &*self.data {
            ColumnData::Str(v) => Ok(v),
            _ => Err(MonetError::TypeMismatch {
                op: "strs",
                expected: ValueType::Str,
                found: self.vtype(),
            }),
        }
    }

    /// Raw storage access (read-only).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity mask, if NULLs are present.
    pub fn validity(&self) -> Option<&Bitset> {
        self.validity.as_deref()
    }

    /// Gather rows at the selected positions into a new column.
    pub fn gather(&self, sel: &SelVec) -> Result<Column> {
        sel.check_bounds(self.len())?;
        let data = match &*self.data {
            ColumnData::Bool(v) => {
                ColumnData::Bool(sel.iter().map(|p| v[p as usize]).collect())
            }
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|p| v[p as usize]).collect()),
            ColumnData::Double(v) => {
                ColumnData::Double(sel.iter().map(|p| v[p as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(sel.iter().map(|p| v[p as usize].clone()).collect())
            }
            ColumnData::Ts(v) => ColumnData::Ts(sel.iter().map(|p| v[p as usize]).collect()),
        };
        let validity = self
            .validity
            .as_deref()
            .map(|m| m.gather(sel.iter().map(|p| p as usize)))
            .filter(|m| !m.all_set());
        Ok(Column {
            data: Arc::new(data),
            validity: validity.map(Arc::new),
        })
    }

    /// Gather by an arbitrary (possibly repeating, unordered) position list.
    /// Used on the build side of joins where positions repeat.
    pub fn gather_positions(&self, positions: &[u32]) -> Result<Column> {
        if let Some(&m) = positions.iter().max() {
            if m as usize >= self.len() {
                return Err(MonetError::SelectionOutOfBounds {
                    pos: m,
                    len: self.len(),
                });
            }
        }
        let data = match &*self.data {
            ColumnData::Bool(v) => {
                ColumnData::Bool(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Int(v) => {
                ColumnData::Int(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Double(v) => {
                ColumnData::Double(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(positions.iter().map(|&p| v[p as usize].clone()).collect())
            }
            ColumnData::Ts(v) => {
                ColumnData::Ts(positions.iter().map(|&p| v[p as usize]).collect())
            }
        };
        let validity = self
            .validity
            .as_deref()
            .map(|m| m.gather(positions.iter().map(|&p| p as usize)))
            .filter(|m| !m.all_set());
        Ok(Column {
            data: Arc::new(data),
            validity: validity.map(Arc::new),
        })
    }

    /// Append all rows of `other` (types must match exactly).
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.vtype() != other.vtype() {
            return Err(MonetError::TypeMismatch {
                op: "append",
                expected: self.vtype(),
                found: other.vtype(),
            });
        }
        // Fast path: appending into an empty column is a zero-copy share of
        // the source's storage — the firing path's output appends and
        // basket refills hit this constantly.
        if self.is_empty() {
            self.data = Arc::clone(&other.data);
            self.validity = other.validity.clone();
            return Ok(());
        }
        // Mask bookkeeping first (needs both lengths before mutation).
        match (&mut self.validity, &other.validity) {
            (None, None) => {}
            (Some(mask), None) => Arc::make_mut(mask).extend_filled(other.len(), true),
            (None, Some(om)) => {
                let om = Arc::clone(om);
                let mask = self.ensure_mask();
                mask.extend_from(&om);
            }
            (Some(mask), Some(om)) => {
                let om = Arc::clone(om);
                Arc::make_mut(mask).extend_from(&om);
            }
        }
        if self.is_shared() {
            // un-share into a copy with growth headroom: the append below
            // and the ones after it land without reallocating, where an
            // exact-size clone would reallocate (and copy again) at once
            let cap = (2 * self.len()).max(self.len() + other.len());
            self.data = Arc::new(self.data.copy_with_capacity(cap));
        }
        match (Arc::make_mut(&mut self.data), &*other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Double(a), ColumnData::Double(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_from_slice(b),
            (ColumnData::Ts(a), ColumnData::Ts(b)) => a.extend_from_slice(b),
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Remove the selected positions *in place*, shifting survivors down —
    /// the bespoke single-pass delete operator the paper reports a 20–30%
    /// win from (§6.2), versus composing complement + gather.
    pub fn delete_sel(&mut self, sel: &SelVec) -> Result<()> {
        sel.check_bounds(self.len())?;
        if sel.is_empty() {
            return Ok(());
        }
        let keep = |i: usize, dead: &[u32]| -> bool {
            // `dead` is ascending; binary search per element would be
            // O(n log d). The closure below is only used for the mask path;
            // data vectors use the streaming two-pointer pass.
            dead.binary_search(&(i as u32)).is_err()
        };
        let dead = sel.as_slice();

        fn compact<T>(v: &mut Vec<T>, dead: &[u32]) {
            // Two-pointer single pass: copy survivors over deleted slots.
            let mut write = dead[0] as usize;
            let mut di = 0usize;
            for read in dead[0] as usize..v.len() {
                if di < dead.len() && dead[di] as usize == read {
                    di += 1;
                    continue;
                }
                v.swap(write, read);
                write += 1;
            }
            v.truncate(write);
        }

        match self.data_mut() {
            ColumnData::Bool(v) => compact(v, dead),
            ColumnData::Int(v) => compact(v, dead),
            ColumnData::Double(v) => compact(v, dead),
            ColumnData::Str(v) => compact(v, dead),
            ColumnData::Ts(v) => compact(v, dead),
        }
        if let Some(mask) = self.validity.take() {
            let mut new_mask = Bitset::new();
            for i in 0..mask.len() {
                if keep(i, dead) {
                    new_mask.push(mask.get(i));
                }
            }
            if !new_mask.all_set() {
                self.validity = Some(Arc::new(new_mask));
            }
        }
        Ok(())
    }

    /// Truncate to the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match self.data_mut() {
            ColumnData::Bool(v) => v.truncate(n),
            ColumnData::Int(v) => v.truncate(n),
            ColumnData::Double(v) => v.truncate(n),
            ColumnData::Str(v) => v.truncate(n),
            ColumnData::Ts(v) => v.truncate(n),
        }
        if let Some(mask) = &mut self.validity {
            Arc::make_mut(mask).truncate(n);
        }
    }

    /// Remove all rows, keeping type (and, when the storage is unshared,
    /// capacity). A shared payload is released, not copied-then-cleared.
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(d) => d.clear(),
            None => self.data = Arc::new(ColumnData::new(self.vtype())),
        }
        self.validity = None;
    }

    /// Iterate boxed values (test/diagnostic path, not the hot path).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(v: &[i64]) -> Column {
        Column::from_ints(v.to_vec())
    }

    fn int_capacity(c: &Column) -> usize {
        match &*c.data {
            ColumnData::Int(v) => v.capacity(),
            _ => unreachable!("an int column"),
        }
    }

    #[test]
    fn snapshot_before_an_append_is_unchanged_after_it() {
        let mut store = int_col(&[1, 2, 3]);
        let snap = store.clone();
        assert!(store.is_shared() && snap.shares_data(&store));
        store.append(&int_col(&[4, 5])).unwrap();
        assert_eq!(snap, int_col(&[1, 2, 3]));
        assert_eq!(store, int_col(&[1, 2, 3, 4, 5]));
        assert!(!store.is_shared() && !snap.is_shared());
    }

    #[test]
    fn unsharing_append_leaves_growth_headroom() {
        let mut store = int_col(&(0..1000).collect::<Vec<_>>());
        let snap = store.clone();
        store.append(&int_col(&[1000])).unwrap();
        assert!(!store.shares_data(&snap));
        assert_eq!(int_capacity(&store), 2000, "room for 2x the copied rows");
        // a large append sizes the copy to fit it exactly, copying once
        let mut store = int_col(&[1, 2]);
        let _snap = store.clone();
        store.append(&int_col(&[0; 10])).unwrap();
        assert_eq!(int_capacity(&store), 12);
    }

    #[test]
    fn push_and_get_all_types() {
        let mut c = Column::new(ValueType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert_eq!(c.null_count(), 1);

        let mut s = Column::new(ValueType::Str);
        s.push(Value::Str("a".into())).unwrap();
        assert_eq!(s.get(0), Value::Str("a".into()));

        let mut d = Column::new(ValueType::Double);
        d.push(Value::Int(2)).unwrap(); // int→double widening on append
        assert_eq!(d.get(0), Value::Double(2.0));

        let mut b = Column::new(ValueType::Bool);
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.get(0), Value::Bool(true));

        let mut t = Column::new(ValueType::Ts);
        t.push(Value::Ts(7)).unwrap();
        t.push(Value::Int(9)).unwrap(); // ints accepted as timestamps
        assert_eq!(t.get(1), Value::Ts(9));
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::new(ValueType::Int);
        assert!(c.push(Value::Str("x".into())).is_err());
        assert!(c.push(Value::Bool(true)).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn typed_slices() {
        let c = int_col(&[1, 2, 3]);
        assert_eq!(c.ints().unwrap(), &[1, 2, 3]);
        assert!(c.doubles().is_err());
        let t = Column::from_ts(vec![10, 20]);
        assert_eq!(t.ints().unwrap(), &[10, 20], "ts readable as ints");
    }

    #[test]
    fn gather_preserves_order_and_nulls() {
        let mut c = Column::new(ValueType::Int);
        for v in [Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)] {
            c.push(v).unwrap();
        }
        let sel = SelVec::from_sorted(vec![1, 3]).unwrap();
        let g = c.gather(&sel).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0), Value::Null);
        assert_eq!(g.get(1), Value::Int(40));

        // all-valid gather drops the mask
        let sel2 = SelVec::from_sorted(vec![0, 3]).unwrap();
        let g2 = c.gather(&sel2).unwrap();
        assert!(g2.validity().is_none());
    }

    #[test]
    fn gather_positions_repeats() {
        let c = int_col(&[5, 6, 7]);
        let g = c.gather_positions(&[2, 0, 2]).unwrap();
        assert_eq!(g.ints().unwrap(), &[7, 5, 7]);
        assert!(c.gather_positions(&[3]).is_err());
    }

    #[test]
    fn gather_out_of_bounds() {
        let c = int_col(&[1]);
        let sel = SelVec::from_sorted(vec![1]).unwrap();
        assert!(c.gather(&sel).is_err());
    }

    #[test]
    fn append_merges_masks() {
        let mut a = int_col(&[1, 2]);
        let mut b = Column::new(ValueType::Int);
        b.push(Value::Null).unwrap();
        b.push(Value::Int(4)).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), Value::Null);
        assert_eq!(a.get(3), Value::Int(4));
        assert_eq!(a.null_count(), 1);

        // append a no-null column onto a masked one
        let c = int_col(&[9]);
        a.append(&c).unwrap();
        assert_eq!(a.get(4), Value::Int(9));
        assert_eq!(a.null_count(), 1);

        let s = Column::new(ValueType::Str);
        assert!(a.append(&s).is_err());
    }

    #[test]
    fn delete_sel_shifts_in_place() {
        let mut c = int_col(&[0, 1, 2, 3, 4, 5]);
        let sel = SelVec::from_sorted(vec![0, 2, 5]).unwrap();
        c.delete_sel(&sel).unwrap();
        assert_eq!(c.ints().unwrap(), &[1, 3, 4]);

        // deleting nothing is a no-op
        c.delete_sel(&SelVec::empty()).unwrap();
        assert_eq!(c.len(), 3);

        // delete everything
        c.delete_sel(&SelVec::all(3)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn delete_sel_with_nulls() {
        let mut c = Column::new(ValueType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(3), Value::Null] {
            c.push(v).unwrap();
        }
        let sel = SelVec::from_sorted(vec![1]).unwrap();
        c.delete_sel(&sel).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Int(3));
        assert_eq!(c.get(2), Value::Null);
        assert_eq!(c.null_count(), 1);

        // removing the last NULL should drop the mask
        let sel2 = SelVec::from_sorted(vec![2]).unwrap();
        c.delete_sel(&sel2).unwrap();
        assert!(c.validity().is_none());
    }

    #[test]
    fn delete_sel_bounds_checked() {
        let mut c = int_col(&[1, 2]);
        let sel = SelVec::from_sorted(vec![2]).unwrap();
        assert!(c.delete_sel(&sel).is_err());
    }

    #[test]
    fn strings_delete_and_gather() {
        let mut c = Column::from_strs(vec!["a".into(), "b".into(), "c".into(), "d".into()]);
        c.delete_sel(&SelVec::from_sorted(vec![1, 2]).unwrap()).unwrap();
        assert_eq!(c.strs().unwrap(), &["a".to_string(), "d".to_string()]);
    }

    #[test]
    fn truncate_and_clear() {
        let mut c = Column::new(ValueType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            c.push(v).unwrap();
        }
        c.truncate(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn from_parts_validation() {
        let data = ColumnData::Int(vec![1, 2, 3]);
        assert!(Column::from_parts(data.clone(), Some(Bitset::filled(2, true))).is_err());
        // an all-set mask is normalized away
        let c = Column::from_parts(data, Some(Bitset::filled(3, true))).unwrap();
        assert!(c.validity().is_none());
    }

    #[test]
    fn from_values_roundtrip() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(2)];
        let c = Column::from_values(ValueType::Int, &vals).unwrap();
        let back: Vec<Value> = c.iter_values().collect();
        assert_eq!(back, vals);
    }
}
