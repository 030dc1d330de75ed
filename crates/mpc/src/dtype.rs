//! MPI datatypes and reduction operators.
//!
//! The native Message Passing Core is independent of the managed runtime,
//! so it carries its own primitive datatype enumeration (the analog of
//! `MPI_Datatype` for contiguous base types) and the predefined reduction
//! operators of MPI-1. Motor's managed bindings drop the datatype parameter
//! entirely ("Object type is easy to determine and therefore the data type
//! parameter has been removed", paper §4.2.1); the native layer keeps it,
//! exactly as MPICH2 does.

/// Primitive wire datatypes (contiguous base types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    U8,
    I8,
    I16,
    U16,
    I32,
    U32,
    I64,
    U64,
    F32,
    F64,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DType::U8 | DType::I8 => 1,
            DType::I16 | DType::U16 => 2,
            DType::I32 | DType::U32 | DType::F32 => 4,
            DType::I64 | DType::U64 | DType::F64 => 8,
        }
    }

    /// All datatypes (for exhaustive tests).
    pub const ALL: [DType; 10] = [
        DType::U8,
        DType::I8,
        DType::I16,
        DType::U16,
        DType::I32,
        DType::U32,
        DType::I64,
        DType::U64,
        DType::F32,
        DType::F64,
    ];
}

/// Rust-type ↔ [`DType`] mapping for the typed convenience API.
pub trait MpcPrim: Copy + Send + 'static {
    /// The wire datatype of this Rust type.
    const DTYPE: DType;
}

macro_rules! impl_mpc_prim {
    ($($t:ty => $d:ident),* $(,)?) => {
        $(impl MpcPrim for $t { const DTYPE: DType = DType::$d; })*
    };
}

impl_mpc_prim! {
    u8 => U8, i8 => I8, i16 => I16, u16 => U16,
    i32 => I32, u32 => U32, i64 => I64, u64 => U64,
    f32 => F32, f64 => F64,
}

/// Predefined reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Bitwise and (integer types only).
    Band,
    /// Bitwise or (integer types only).
    Bor,
}

macro_rules! reduce_arm {
    ($op:expr, $t:ty, $acc:expr, $inp:expr, $int:expr) => {{
        let n = $acc.len() / std::mem::size_of::<$t>();
        // SAFETY: caller guarantees both buffers hold `n` elements of `$t`.
        let a = unsafe { std::slice::from_raw_parts_mut($acc.as_mut_ptr() as *mut $t, n) };
        // SAFETY: as above, for the input.
        let b = unsafe { std::slice::from_raw_parts($inp.as_ptr() as *const $t, n) };
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x = apply_one::<$t>($op, *x, y, $int);
        }
    }};
}

trait Reducible: Copy + PartialOrd {
    fn add(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn band(self, o: Self) -> Self;
    fn bor(self, o: Self) -> Self;
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn add(self, o: Self) -> Self { self.wrapping_add(o) }
            fn mul(self, o: Self) -> Self { self.wrapping_mul(o) }
            fn band(self, o: Self) -> Self { self & o }
            fn bor(self, o: Self) -> Self { self | o }
        }
    )*};
}
macro_rules! impl_reducible_float {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn add(self, o: Self) -> Self { self + o }
            fn mul(self, o: Self) -> Self { self * o }
            fn band(self, _o: Self) -> Self { unreachable!("bitwise op on float") }
            fn bor(self, _o: Self) -> Self { unreachable!("bitwise op on float") }
        }
    )*};
}
impl_reducible_int!(u8, i8, i16, u16, i32, u32, i64, u64);
impl_reducible_float!(f32, f64);

fn apply_one<T: Reducible>(op: ReduceOp, a: T, b: T, is_int: bool) -> T {
    match op {
        ReduceOp::Sum => a.add(b),
        ReduceOp::Prod => a.mul(b),
        ReduceOp::Min => {
            if b < a {
                b
            } else {
                a
            }
        }
        ReduceOp::Max => {
            if b > a {
                b
            } else {
                a
            }
        }
        ReduceOp::Band => {
            assert!(is_int, "bitwise reduction requires an integer datatype");
            a.band(b)
        }
        ReduceOp::Bor => {
            assert!(is_int, "bitwise reduction requires an integer datatype");
            a.bor(b)
        }
    }
}

/// Reduce `input` into `acc` elementwise: `acc[i] = op(acc[i], input[i])`.
/// Both buffers are raw bytes holding elements of `dtype`.
pub fn reduce_in_place(op: ReduceOp, dtype: DType, acc: &mut [u8], input: &[u8]) {
    assert_eq!(acc.len(), input.len(), "reduction buffer length mismatch");
    assert_eq!(
        acc.len() % dtype.size(),
        0,
        "buffer not a whole number of elements"
    );
    match dtype {
        DType::U8 => reduce_arm!(op, u8, acc, input, true),
        DType::I8 => reduce_arm!(op, i8, acc, input, true),
        DType::I16 => reduce_arm!(op, i16, acc, input, true),
        DType::U16 => reduce_arm!(op, u16, acc, input, true),
        DType::I32 => reduce_arm!(op, i32, acc, input, true),
        DType::U32 => reduce_arm!(op, u32, acc, input, true),
        DType::I64 => reduce_arm!(op, i64, acc, input, true),
        DType::U64 => reduce_arm!(op, u64, acc, input, true),
        DType::F32 => reduce_arm!(op, f32, acc, input, false),
        DType::F64 => reduce_arm!(op, f64, acc, input, false),
    }
}

/// View a typed slice as raw bytes.
pub fn as_bytes<T: MpcPrim>(s: &[T]) -> &[u8] {
    // SAFETY: MpcPrim types are plain-old-data.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// View a typed mutable slice as raw bytes.
pub fn as_bytes_mut<T: MpcPrim>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: MpcPrim types are plain-old-data; all bit patterns valid.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut u8, std::mem::size_of_val(s)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_consistent() {
        for d in DType::ALL {
            assert!(matches!(d.size(), 1 | 2 | 4 | 8));
        }
        assert_eq!(<f64 as MpcPrim>::DTYPE.size(), 8);
    }

    #[test]
    fn sum_reduction_i32() {
        let mut acc = vec![1i32, 2, 3, 4];
        let inp = vec![10i32, 20, 30, 40];
        reduce_in_place(
            ReduceOp::Sum,
            DType::I32,
            as_bytes_mut(&mut acc),
            as_bytes(&inp),
        );
        assert_eq!(acc, vec![11, 22, 33, 44]);
    }

    #[test]
    fn min_max_f64() {
        let mut acc = vec![1.0f64, 9.0];
        let inp = vec![5.0f64, 2.0];
        let mut acc2 = acc.clone();
        reduce_in_place(
            ReduceOp::Min,
            DType::F64,
            as_bytes_mut(&mut acc),
            as_bytes(&inp),
        );
        assert_eq!(acc, vec![1.0, 2.0]);
        reduce_in_place(
            ReduceOp::Max,
            DType::F64,
            as_bytes_mut(&mut acc2),
            as_bytes(&inp),
        );
        assert_eq!(acc2, vec![5.0, 9.0]);
    }

    #[test]
    fn prod_wraps_on_integers() {
        let mut acc = vec![200u8];
        let inp = vec![2u8];
        reduce_in_place(ReduceOp::Prod, DType::U8, &mut acc, &inp);
        assert_eq!(acc, vec![144], "wrapping multiply");
    }

    #[test]
    fn bitwise_ops() {
        let mut acc = vec![0b1100u8];
        reduce_in_place(ReduceOp::Band, DType::U8, &mut acc, &[0b1010u8]);
        assert_eq!(acc, vec![0b1000]);
        let mut acc = vec![0b1100u8];
        reduce_in_place(ReduceOp::Bor, DType::U8, &mut acc, &[0b1010u8]);
        assert_eq!(acc, vec![0b1110]);
    }

    #[test]
    #[should_panic(expected = "integer datatype")]
    fn bitwise_on_float_refused() {
        let mut acc = vec![0u8; 8];
        let inp = vec![0u8; 8];
        reduce_in_place(ReduceOp::Band, DType::F64, &mut acc, &inp);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_refused() {
        let mut acc = vec![0u8; 4];
        reduce_in_place(ReduceOp::Sum, DType::U8, &mut acc, &[0u8; 8]);
    }
}
