//! A minimal length-safe binary codec for durable payloads.
//!
//! Fixed-width little-endian integers, `f64` as raw bits (bit-exact across
//! write/read — the recovery bit-identity tests depend on it), and
//! length-prefixed byte strings. [`Dec`] never panics: every read is
//! bounds-checked and returns a typed [`DurableError::Decode`] on truncated
//! or out-of-range input, so a corrupted payload surfaces as an error the
//! caller can route, not a crash.

#![expect(
    clippy::indexing_slicing,
    reason = "Dec::take checks remaining() >= n and returns a typed Decode error before the only slice expression; pos advances by the same n"
)]

use crate::DurableError;

/// Appends values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (this workspace only targets
    /// 64-bit-or-narrower platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bits — the exact value round-trips,
    /// including negative zero and every subnormal.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Reads values back out of a byte slice, tracking position.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — trailing garbage in a
    /// checksummed payload means a writer/reader version skew.
    ///
    /// # Errors
    /// [`DurableError::Decode`] when bytes remain.
    pub fn finish(&self) -> Result<(), DurableError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DurableError::decode(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DurableError> {
        if self.remaining() < n {
            return Err(DurableError::decode(format!(
                "truncated payload: wanted {n} bytes for {what}, had {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation.
    pub fn take_u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool; any byte other than `0`/`1` is a decode error.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation or an out-of-range byte.
    pub fn take_bool(&mut self) -> Result<bool, DurableError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DurableError::decode(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation.
    pub fn take_u32(&mut self) -> Result<u32, DurableError> {
        let s = self.take(4, "u32")?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64, DurableError> {
        let s = self.take(8, "u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` and narrows it to `usize`, erroring (not wrapping) when
    /// it does not fit the platform.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation or overflow.
    pub fn take_usize(&mut self) -> Result<usize, DurableError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| DurableError::decode(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation.
    pub fn take_f64(&mut self) -> Result<f64, DurableError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte string. The length is validated against
    /// the remaining buffer before any allocation, so a corrupted prefix
    /// cannot trigger a huge reserve.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation or an impossible length.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, DurableError> {
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(DurableError::decode(format!(
                "byte-string length {n} exceeds remaining {}",
                self.remaining()
            )));
        }
        Ok(self.take(n, "byte string")?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`DurableError::Decode`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, DurableError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes).map_err(|e| DurableError::decode(format!("bad utf-8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::{Dec, Enc};

    #[test]
    fn round_trip_all_types() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_usize(123_456);
        e.put_f64(-0.0);
        e.put_f64(f64::MIN_POSITIVE / 2.0); // subnormal
        e.put_f64(core::f64::consts::PI);
        e.put_bytes(&[1, 2, 3]);
        e.put_str("snapshot ≠ WAL");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().expect("u8"), 7);
        assert!(d.take_bool().expect("bool"));
        assert!(!d.take_bool().expect("bool"));
        assert_eq!(d.take_u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().expect("u64"), u64::MAX);
        assert_eq!(d.take_usize().expect("usize"), 123_456);
        assert_eq!(d.take_f64().expect("f64").to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            d.take_f64().expect("f64").to_bits(),
            (f64::MIN_POSITIVE / 2.0).to_bits()
        );
        assert_eq!(
            d.take_f64().expect("f64").to_bits(),
            core::f64::consts::PI.to_bits()
        );
        assert_eq!(d.take_bytes().expect("bytes"), vec![1, 2, 3]);
        assert_eq!(d.take_str().expect("str"), "snapshot ≠ WAL");
        d.finish().expect("fully consumed");
    }

    #[test]
    fn truncation_errors_never_panic() {
        let mut e = Enc::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        // Every proper prefix must produce Err, not panic.
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.take_u64().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // A byte-string claiming u64::MAX length must not allocate.
        let mut e = Enc::new();
        e.put_u64(u64::MAX);
        e.put_u8(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.take_bytes().is_err());

        // Bad bool byte.
        let mut d = Dec::new(&[9]);
        assert!(d.take_bool().is_err());

        // Trailing garbage flagged by finish().
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.take_u8().expect("u8"), 1);
        assert!(d.finish().is_err());
    }
}
