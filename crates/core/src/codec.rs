//! Bounds-checked little-endian payload codec shared by the store's
//! canonical design encoding and journal records, the `.slifb` wire
//! segments, and exploration checkpoints — the payloads inside the
//! [`atomic_io`](crate::atomic_io) frames.
//!
//! The decoder never trusts a decoded count: callers loop-and-push
//! rather than pre-allocating from untrusted lengths, and [`Dec::take`]
//! guarantees termination because every read advances or errors.

use crate::atomic_io::{le_u32, le_u64};

/// Why a payload did not decode. Each format converts it into its own
/// error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the field being read.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// Bytes remain after the last field.
    TrailingBytes,
}

impl DecodeError {
    /// What was being decoded: the field's context when truncated,
    /// `"trailing bytes"` otherwise.
    pub fn context(self) -> &'static str {
        match self {
            Self::Truncated { context } => context,
            Self::TrailingBytes => "trailing bytes",
        }
    }
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes written so far. Public so composite encoders can
    /// splice finished sub-payloads together.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u16`, little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` as its raw IEEE-754 bits (exact round trip, no
    /// decimal detour).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian payload reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts reading at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DecodeError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated { context });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(le_u32(self.take(4, context)?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(le_u64(self.take(8, context)?))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn f64(&mut self, context: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed byte string; the length is
    /// bounds-checked against the remaining buffer before any
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] naming `context` on exhausted input.
    #[inline]
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(context)? as usize;
        self.take(len, context)
    }

    /// Bytes not yet consumed — the hostile-safe ceiling for any
    /// pre-allocation driven by a decoded count.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Requires the input to be fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if bytes remain.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
}
