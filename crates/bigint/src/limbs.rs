//! Low-level limb (u64) primitives: carry/borrow chains and schoolbook cores.
//!
//! Everything here operates on little-endian limb slices. These functions are
//! the hot inner loops of the crate; they are written so LLVM can keep the
//! carry in a register (see the perf-book guidance on hot-loop structure).

/// Number of bits in one limb.
pub const LIMB_BITS: u32 = 64;

/// Adds `rhs` into `acc` in place, returning the final carry.
///
/// `acc` must be at least as long as `rhs`.
#[inline]
pub fn add_assign(acc: &mut [u64], rhs: &[u64]) -> u64 {
    debug_assert!(acc.len() >= rhs.len());
    let mut carry = 0u64;
    for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(carry);
        *a = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
    if carry != 0 {
        for a in acc.iter_mut().skip(rhs.len()) {
            let (s, c) = a.overflowing_add(carry);
            *a = s;
            carry = u64::from(c);
            if carry == 0 {
                break;
            }
        }
    }
    carry
}

/// Subtracts `rhs` from `acc` in place, returning the final borrow.
///
/// `acc` must be at least as long as `rhs`. A non-zero return value means the
/// subtraction underflowed (caller bug for normalized big integers).
#[inline]
pub fn sub_assign(acc: &mut [u64], rhs: &[u64]) -> u64 {
    debug_assert!(acc.len() >= rhs.len());
    let mut borrow = 0u64;
    for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
        let (d1, b1) = a.overflowing_sub(b);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *a = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    if borrow != 0 {
        for a in acc.iter_mut().skip(rhs.len()) {
            let (d, b) = a.overflowing_sub(borrow);
            *a = d;
            borrow = u64::from(b);
            if borrow == 0 {
                break;
            }
        }
    }
    borrow
}

/// Schoolbook multiplication: `out = a * b`.
///
/// `out` must be zeroed and exactly `a.len() + b.len()` limbs long.
pub fn mul_schoolbook(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    debug_assert!(out.iter().all(|&l| l == 0));
    for (i, &bi) in b.iter().enumerate() {
        if bi == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &aj) in a.iter().enumerate() {
            let t = (aj as u128) * (bi as u128) + (out[i + j] as u128) + (carry as u128);
            out[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        out[i + a.len()] = carry;
    }
}

/// Compares two normalized limb slices.
#[inline]
pub fn cmp(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    use core::cmp::Ordering;
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        other => return other,
    }
    for (&x, &y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(&y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Shifts `limbs` left by `sh` bits (`sh < 64`), returning the spill-over.
#[inline]
pub fn shl_small(limbs: &mut [u64], sh: u32) -> u64 {
    debug_assert!(sh < LIMB_BITS);
    if sh == 0 {
        return 0;
    }
    let mut carry = 0u64;
    for l in limbs.iter_mut() {
        let next = *l >> (LIMB_BITS - sh);
        *l = (*l << sh) | carry;
        carry = next;
    }
    carry
}

/// Shifts `limbs` right by `sh` bits (`sh < 64`).
#[inline]
pub fn shr_small(limbs: &mut [u64], sh: u32) {
    debug_assert!(sh < LIMB_BITS);
    if sh == 0 {
        return;
    }
    let mut carry = 0u64;
    for l in limbs.iter_mut().rev() {
        let next = *l << (LIMB_BITS - sh);
        *l = (*l >> sh) | carry;
        carry = next;
    }
}

/// Shifts `limbs` right by any `sh` bits, filling with zeros.
#[inline]
pub fn shr_assign(limbs: &mut [u64], sh: u32) {
    let words = ((sh / LIMB_BITS) as usize).min(limbs.len());
    if words > 0 {
        limbs.copy_within(words.., 0);
        let len = limbs.len();
        limbs[len - words..].fill(0);
    }
    shr_small(limbs, sh % LIMB_BITS);
}

/// Shifts `limbs` left by any `sh` bits; bits shifted past the top are
/// dropped.
#[inline]
pub fn shl_assign(limbs: &mut [u64], sh: u32) {
    let words = ((sh / LIMB_BITS) as usize).min(limbs.len());
    if words > 0 {
        let len = limbs.len();
        limbs.copy_within(..len - words, words);
        limbs[..words].fill(0);
    }
    shl_small(limbs, sh % LIMB_BITS);
}

/// Trailing zero bits of a non-zero limb buffer.
#[inline]
pub fn trailing_zeros(limbs: &[u64]) -> u32 {
    let i = limbs.iter().position(|&l| l != 0).expect("non-zero");
    LIMB_BITS * i as u32 + limbs[i].trailing_zeros()
}

/// Strips trailing (most-significant) zero limbs, returning the normalized
/// length.
#[inline]
pub fn normalized_len(limbs: &[u64]) -> usize {
    let mut n = limbs.len();
    while n > 0 && limbs[n - 1] == 0 {
        n -= 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_carries_across_limbs() {
        let mut acc = vec![u64::MAX, u64::MAX, 0];
        let carry = add_assign(&mut acc, &[1]);
        assert_eq!(carry, 0);
        assert_eq!(acc, vec![0, 0, 1]);
    }

    #[test]
    fn add_assign_returns_final_carry() {
        let mut acc = vec![u64::MAX];
        let carry = add_assign(&mut acc, &[1]);
        assert_eq!(carry, 1);
        assert_eq!(acc, vec![0]);
    }

    #[test]
    fn sub_assign_borrows_across_limbs() {
        let mut acc = vec![0, 0, 1];
        let borrow = sub_assign(&mut acc, &[1]);
        assert_eq!(borrow, 0);
        assert_eq!(acc, vec![u64::MAX, u64::MAX, 0]);
    }

    #[test]
    fn sub_assign_underflow_reports_borrow() {
        let mut acc = vec![0];
        let borrow = sub_assign(&mut acc, &[1]);
        assert_eq!(borrow, 1);
    }

    #[test]
    fn mul_schoolbook_simple() {
        let mut out = vec![0u64; 2];
        mul_schoolbook(&mut out, &[u64::MAX], &[u64::MAX]);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(out, vec![1, u64::MAX - 1]);
    }

    #[test]
    fn shl_shr_roundtrip() {
        let mut v = vec![0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef];
        let orig = v.clone();
        let spill = shl_small(&mut v, 13);
        let mut w = vec![v[0], v[1], spill];
        shr_small(&mut w, 13);
        assert_eq!(&w[..2], &orig[..]);
    }

    #[test]
    fn any_width_shifts_match_ubig() {
        let v = crate::Ubig::from_hex("f00d0123456789abcdeffedcba9876543210deadbeefcafe").unwrap();
        for sh in [0u32, 1, 63, 64, 65, 130, 191, 192, 400] {
            let mut r = v.limbs().to_vec();
            shr_assign(&mut r, sh);
            assert_eq!(crate::Ubig::from_limbs(r), v.shr_bits(sh), "shr {sh}");
            let mut l = v.limbs().to_vec();
            l.resize(8, 0);
            shl_assign(&mut l, sh);
            let mask = crate::Ubig::one()
                .shl_bits(512)
                .checked_sub(&crate::Ubig::one());
            let want = v.shl_bits(sh).bitand_ref(&mask.unwrap());
            assert_eq!(crate::Ubig::from_limbs(l), want, "shl {sh}");
        }
        assert_eq!(trailing_zeros(&[0, 0, 8]), 131);
    }

    #[test]
    fn cmp_orders_by_length_then_lexicographic() {
        use core::cmp::Ordering;
        assert_eq!(cmp(&[1, 2], &[5]), Ordering::Greater);
        assert_eq!(cmp(&[1, 2], &[2, 2]), Ordering::Less);
        assert_eq!(cmp(&[7, 9], &[7, 9]), Ordering::Equal);
    }
}
