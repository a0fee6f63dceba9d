//! Runtime values for kernel arguments and buffers.
//!
//! Device buffers are conceptually 32-bit (`float`/`int` in MCPL); the
//! interpreter computes in `f64`/`i64` for convenience and rounds through
//! `f32` on stores so results match what 32-bit hardware would produce.
//!
//! A buffer is either *real* (backed by memory, used for functional runs and
//! correctness tests) or *phantom* (shape only). Phantom buffers let the
//! paper-scale experiments run — 32768×32768 matrices never materialize —
//! while keeping the interpreter's control flow and access-pattern
//! statistics intact: phantom loads return a deterministic hash of the
//! address and phantom stores are dropped.
//!
//! Real data is shared on clone and copied on the first store to a shared
//! buffer, so a read-only input built once (a scene, a lookup table) costs
//! no copy per launch.

use crate::ast::ElemTy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Backing store of an array argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Buffer {
    F(Arc<[f64]>),
    I(Arc<[i64]>),
    /// Shape-only float buffer of the given length.
    PhantomF(u64),
    /// Shape-only int buffer of the given length.
    PhantomI(u64),
}

/// Deterministic pseudo-value for phantom loads: cheap integer hash of the
/// flat address mapped into [0, 1).
#[inline]
fn phantom_unit(addr: u64) -> f64 {
    let mut x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    (x & 0xFFFF_FFFF) as f64 / 4_294_967_296.0
}

impl Buffer {
    pub fn len(&self) -> u64 {
        match self {
            Buffer::F(v) => v.len() as u64,
            Buffer::I(v) => v.len() as u64,
            Buffer::PhantomF(n) | Buffer::PhantomI(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_phantom(&self) -> bool {
        matches!(self, Buffer::PhantomF(_) | Buffer::PhantomI(_))
    }

    pub fn elem(&self) -> ElemTy {
        match self {
            Buffer::F(_) | Buffer::PhantomF(_) => ElemTy::Float,
            Buffer::I(_) | Buffer::PhantomI(_) => ElemTy::Int,
        }
    }

    /// Load as float (int buffers convert).
    #[inline]
    pub fn load_f(&self, addr: u64) -> f64 {
        match self {
            Buffer::F(v) => v[addr as usize],
            Buffer::I(v) => v[addr as usize] as f64,
            Buffer::PhantomF(_) => phantom_unit(addr),
            Buffer::PhantomI(_) => (phantom_unit(addr) * 256.0).floor(),
        }
    }

    /// Load as int (float buffers truncate).
    #[inline]
    pub fn load_i(&self, addr: u64) -> i64 {
        match self {
            Buffer::F(v) => v[addr as usize] as i64,
            Buffer::I(v) => v[addr as usize],
            Buffer::PhantomF(_) => (phantom_unit(addr) * 256.0) as i64,
            Buffer::PhantomI(_) => (phantom_unit(addr) * 256.0) as i64,
        }
    }

    /// `load_f` of every address in `addrs`, appended to `out`.
    pub fn gather_f(&self, addrs: &[u64], out: &mut Vec<f64>) {
        match self {
            Buffer::F(v) => out.extend(addrs.iter().map(|&a| v[a as usize])),
            _ => out.extend(addrs.iter().map(|&a| self.load_f(a))),
        }
    }

    /// `load_i` of every address in `addrs`, appended to `out`.
    pub fn gather_i(&self, addrs: &[u64], out: &mut Vec<i64>) {
        match self {
            Buffer::I(v) => out.extend(addrs.iter().map(|&a| v[a as usize])),
            _ => out.extend(addrs.iter().map(|&a| self.load_i(a))),
        }
    }

    /// Store a float (rounded through `f32`, matching 32-bit devices).
    #[inline]
    pub fn store_f(&mut self, addr: u64, v: f64) {
        self.stores().store_f(addr, v);
    }

    #[inline]
    pub fn store_i(&mut self, addr: u64, v: i64) {
        self.stores().store_i(addr, v);
    }

    /// Write access for a run of stores: unshares real data once, not per
    /// store.
    pub(crate) fn stores(&mut self) -> Stores<'_> {
        match self {
            Buffer::F(data) => Stores::F(Arc::make_mut(data)),
            Buffer::I(data) => Stores::I(Arc::make_mut(data)),
            Buffer::PhantomF(_) | Buffer::PhantomI(_) => Stores::Phantom,
        }
    }
}

/// A [`Buffer`] opened for stores ([`Buffer::stores`]).
pub(crate) enum Stores<'a> {
    F(&'a mut [f64]),
    I(&'a mut [i64]),
    /// Phantom stores are dropped.
    Phantom,
}

impl Stores<'_> {
    /// [`Buffer::store_f`].
    #[inline]
    pub(crate) fn store_f(&mut self, addr: u64, v: f64) {
        match self {
            Stores::F(data) => data[addr as usize] = v as f32 as f64,
            Stores::I(data) => data[addr as usize] = v as i64,
            Stores::Phantom => {}
        }
    }

    /// [`Buffer::store_i`].
    #[inline]
    pub(crate) fn store_i(&mut self, addr: u64, v: i64) {
        match self {
            Stores::F(data) => data[addr as usize] = v as f64,
            Stores::I(data) => data[addr as usize] = v,
            Stores::Phantom => {}
        }
    }
}

/// Dimension sizes of an array argument, outermost first. Kernel arrays
/// have rank 1 to 3, so up to [`Dims::INLINE`] sizes are stored in place:
/// building a device job's arguments then allocates nothing per array. A
/// higher rank spills to the heap. Serializes as a plain list.
#[derive(Clone)]
pub struct Dims(DimsRepr);

/// Private, so an inline length never exceeds [`Dims::INLINE`].
#[derive(Clone)]
enum DimsRepr {
    Inline { len: u8, dims: [u64; Dims::INLINE] },
    Spilled(Vec<u64>),
}

impl Dims {
    /// Ranks stored without a heap allocation.
    pub const INLINE: usize = 4;

    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            DimsRepr::Inline { len, dims } => &dims[..usize::from(*len)],
            DimsRepr::Spilled(v) => v,
        }
    }
}

impl From<&[u64]> for Dims {
    fn from(d: &[u64]) -> Dims {
        Dims(if d.len() <= Dims::INLINE {
            let mut dims = [0; Dims::INLINE];
            dims[..d.len()].copy_from_slice(d);
            DimsRepr::Inline {
                len: d.len() as u8,
                dims,
            }
        } else {
            DimsRepr::Spilled(d.to_vec())
        })
    }
}

impl std::ops::Deref for Dims {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl PartialEq for Dims {
    fn eq(&self, other: &Dims) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for Dims {
    fn to_content(&self) -> serde::Content {
        self.as_slice().to_content()
    }
}

impl Deserialize for Dims {
    fn from_content(c: &serde::Content) -> Result<Dims, serde::DeError> {
        Vec::<u64>::from_content(c).map(|v| Dims::from(&v[..]))
    }
}

/// An array argument: element type, dimension sizes, backing buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayArg {
    pub dims: Dims,
    pub data: Buffer,
}

impl ArrayArg {
    /// Real float array from data; `dims` must multiply to `data.len()`.
    pub fn float(dims: &[u64], data: Vec<f64>) -> ArrayArg {
        let expect: u64 = dims.iter().product();
        assert_eq!(
            expect,
            data.len() as u64,
            "dims {dims:?} vs len {}",
            data.len()
        );
        ArrayArg {
            dims: Dims::from(dims),
            data: Buffer::F(data.into()),
        }
    }

    /// Real float array from f32 data (convenience for app buffers).
    pub fn float32(dims: &[u64], data: &[f32]) -> ArrayArg {
        ArrayArg::float(dims, data.iter().map(|&x| f64::from(x)).collect())
    }

    pub fn int(dims: &[u64], data: Vec<i64>) -> ArrayArg {
        let expect: u64 = dims.iter().product();
        assert_eq!(expect, data.len() as u64);
        ArrayArg {
            dims: Dims::from(dims),
            data: Buffer::I(data.into()),
        }
    }

    /// Phantom (shape-only) array.
    pub fn phantom(elem: ElemTy, dims: &[u64]) -> ArrayArg {
        let n: u64 = dims.iter().product();
        ArrayArg {
            dims: Dims::from(dims),
            data: match elem {
                ElemTy::Float => Buffer::PhantomF(n),
                ElemTy::Int => Buffer::PhantomI(n),
            },
        }
    }

    /// Zero-filled real array.
    pub fn zeros(elem: ElemTy, dims: &[u64]) -> ArrayArg {
        let n: usize = dims.iter().product::<u64>() as usize;
        ArrayArg {
            dims: Dims::from(dims),
            data: match elem {
                ElemTy::Float => Buffer::F(std::iter::repeat_n(0.0, n).collect()),
                ElemTy::Int => Buffer::I(std::iter::repeat_n(0, n).collect()),
            },
        }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn len(&self) -> u64 {
        self.dims.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in device bytes (4 bytes per element).
    pub fn device_bytes(&self) -> u64 {
        self.len() * 4
    }

    /// Flatten a multi-dim index (row-major). Panics on out-of-bounds in
    /// real mode; phantom mode wraps (no memory to corrupt, keeps huge
    /// synthetic runs alive).
    #[inline]
    pub fn flat_index(&self, idx: &[i64]) -> u64 {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut flat: u64 = 0;
        for (d, &i) in self.dims.iter().zip(idx) {
            if i < 0 || (i as u64) >= *d {
                if self.data.is_phantom() {
                    let wrapped = (i.rem_euclid(*d as i64)) as u64;
                    flat = flat * d + wrapped;
                    continue;
                }
                panic!("index {i} out of bounds for dim {d} (dims {:?})", self.dims);
            }
            flat = flat * d + i as u64;
        }
        flat
    }

    /// Extract real float data (panics on phantom/int).
    pub fn as_f64(&self) -> &[f64] {
        match &self.data {
            Buffer::F(v) => v,
            other => panic!("expected real float buffer, got {other:?}"),
        }
    }

    pub fn as_i64(&self) -> &[i64] {
        match &self.data {
            Buffer::I(v) => v,
            other => panic!("expected real int buffer, got {other:?}"),
        }
    }
}

/// A kernel argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgValue {
    Int(i64),
    Float(f64),
    Array(ArrayArg),
}

impl ArgValue {
    pub fn array(self) -> ArrayArg {
        match self {
            ArgValue::Array(a) => a,
            other => panic!("expected array argument, got {other:?}"),
        }
    }

    /// Device bytes this argument occupies for host↔device transfer.
    pub fn device_bytes(&self) -> u64 {
        match self {
            ArgValue::Int(_) | ArgValue::Float(_) => 4,
            ArgValue::Array(a) => a.device_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_buffer_roundtrip() {
        let mut a = ArrayArg::zeros(ElemTy::Float, &[2, 3]);
        let i = a.flat_index(&[1, 2]);
        assert_eq!(i, 5);
        a.data.store_f(i, 2.5);
        assert_eq!(a.data.load_f(i), 2.5);
        assert_eq!(a.device_bytes(), 24);
    }

    #[test]
    fn f32_rounding_on_store() {
        let mut a = ArrayArg::zeros(ElemTy::Float, &[1]);
        a.data.store_f(0, 1.000_000_000_1);
        assert_eq!(a.data.load_f(0), f64::from(1.000_000_000_1_f32));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn real_oob_panics() {
        let a = ArrayArg::zeros(ElemTy::Float, &[4]);
        a.flat_index(&[4]);
    }

    #[test]
    fn phantom_loads_are_deterministic_and_writes_dropped() {
        let mut a = ArrayArg::phantom(ElemTy::Float, &[1000]);
        let v1 = a.data.load_f(123);
        let v2 = a.data.load_f(123);
        assert_eq!(v1, v2);
        assert!((0.0..1.0).contains(&v1));
        assert_ne!(a.data.load_f(124), v1);
        a.data.store_f(123, 99.0);
        assert_eq!(a.data.load_f(123), v1, "phantom stores dropped");
    }

    #[test]
    fn phantom_oob_wraps() {
        let a = ArrayArg::phantom(ElemTy::Float, &[10]);
        // Does not panic; wraps deterministically.
        assert_eq!(a.flat_index(&[12]), 2);
        assert_eq!(a.flat_index(&[-1]), 9);
    }

    #[test]
    fn int_buffer_conversions() {
        let a = ArrayArg::int(&[2], vec![7, -3]);
        assert_eq!(a.data.load_f(0), 7.0);
        assert_eq!(a.data.load_i(1), -3);
    }

    #[test]
    #[should_panic(expected = "dims")]
    fn dims_length_mismatch_panics() {
        let _ = ArrayArg::float(&[2, 2], vec![0.0; 5]);
    }

    #[test]
    fn dims_serialize_as_the_plain_list() {
        // The serde form `dims` had as a `Vec<u64>`.
        #[derive(Serialize)]
        struct VecDims {
            dims: Vec<u64>,
            data: Buffer,
        }
        for dims in [
            &[][..],
            &[7],
            &[2, 3],
            &[4, 1, 9, 2],
            &[1, 2, 3, 4, 5],
            &[6; 9],
        ] {
            for a in [
                ArrayArg::phantom(ElemTy::Float, dims),
                ArrayArg::zeros(ElemTy::Int, dims),
            ] {
                let want = VecDims {
                    dims: dims.to_vec(),
                    data: a.data.clone(),
                };
                let json = serde_json::to_string(&a).unwrap();
                assert_eq!(json, serde_json::to_string(&want).unwrap());
                let back: ArrayArg = serde_json::from_str(&json).unwrap();
                assert_eq!(back, a, "{json}");
                assert_eq!(&*a.dims, dims);
                assert_eq!(format!("{:?}", a.dims), format!("{dims:?}"));
            }
        }
    }

    #[test]
    fn rank_above_inline_capacity_spills() {
        let dims = [2, 1, 3, 1, 2];
        assert!(dims.len() > Dims::INLINE);
        let mut a = ArrayArg::zeros(ElemTy::Float, &dims);
        assert!(matches!(a.dims.0, DimsRepr::Spilled(_)));
        assert!(matches!(
            ArrayArg::zeros(ElemTy::Float, &dims[..Dims::INLINE]).dims.0,
            DimsRepr::Inline { .. }
        ));
        assert_eq!(a.rank(), 5);
        assert_eq!(a.len(), 12);
        let i = a.flat_index(&[1, 0, 2, 0, 1]);
        assert_eq!(i, 11);
        a.data.store_f(i, 4.0);
        assert_eq!(a.as_f64()[11], 4.0);
    }

    #[test]
    fn float32_helper() {
        let a = ArrayArg::float32(&[2], &[1.5f32, 2.5]);
        assert_eq!(a.as_f64(), &[1.5, 2.5]);
    }
}
