//! HMAC (RFC 2104) generic over any [`Digest`].

use crate::digest::Digest;

/// Incremental HMAC.
///
/// Both pads are absorbed when the key is set: `inner` has hashed
/// `K ⊕ ipad` and `outer` has hashed `K ⊕ opad`. A keyed instance cloned
/// per message (the envelope's tags, the snapshot's synthetic IVs, HKDF's
/// blocks) therefore pays only the compressions of its message and of the
/// inner digest.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = if key.len() > D::BLOCK_SIZE {
            D::digest(key)
        } else {
            key.to_vec()
        };
        k.resize(D::BLOCK_SIZE, 0);
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        let mut inner = D::new();
        inner.update(&ipad);
        let mut outer = D::new();
        outer.update(&opad);
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the tag.
    pub fn finalize(self) -> Vec<u8> {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot `HMAC(key, msg)`.
    pub fn mac(key: &[u8], msg: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(msg);
        h.finalize()
    }

    /// Constant-time-ish tag comparison (length + fold over XOR).
    pub fn verify(key: &[u8], msg: &[u8], tag: &[u8]) -> bool {
        let expect = Self::mac(key, msg);
        if expect.len() != tag.len() {
            return false;
        }
        expect
            .iter()
            .zip(tag)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases for HMAC-SHA256, RFC 2202 for HMAC-SHA1.

    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(
                b"Jefe",
                b"what do ya want for nothing?"
            )),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let tag = Hmac::<Sha256>::mac(b"key", b"msg");
        assert!(Hmac::<Sha256>::verify(b"key", b"msg", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha256>::verify(b"key", b"msg", &bad));
        assert!(!Hmac::<Sha256>::verify(b"key", b"msg", &tag[..31]));
    }

    #[test]
    fn a_keyed_instance_cloned_per_message_matches_one_shot_tags() {
        for key in [&b"k"[..], &[0xaa; 64], &[0x5c; 131]] {
            let keyed = Hmac::<Sha256>::new(key);
            for msg in [&b"first message"[..], b"", &[0x36; 200]] {
                let mut h = keyed.clone();
                h.update(msg);
                assert_eq!(h.finalize(), Hmac::<Sha256>::mac(key, msg));
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Hmac::<Sha256>::new(b"split-key");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(
            h.finalize(),
            Hmac::<Sha256>::mac(b"split-key", b"part one part two")
        );
    }
}
