//! Error type for the on-device simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by serialization, the mmap simulator, and the engines.
#[derive(Debug, Clone, PartialEq)]
pub enum OnDeviceError {
    /// The byte stream is not a valid model file.
    BadFormat {
        /// What was wrong with the stream.
        context: String,
    },
    /// The model cannot be serialized (unsupported embedding kind, …).
    Unsupported {
        /// Why serialization is impossible.
        context: String,
    },
    /// A read past the end of the mapped file.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// File size.
        size: usize,
    },
    /// Inference input is invalid for the model.
    BadInput {
        /// Description of the mismatch.
        context: String,
    },
}

impl fmt::Display for OnDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnDeviceError::BadFormat { context } => write!(f, "bad model file: {context}"),
            OnDeviceError::Unsupported { context } => write!(f, "unsupported model: {context}"),
            OnDeviceError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "read of {len} bytes at {offset} exceeds file of {size} bytes"
                )
            }
            OnDeviceError::BadInput { context } => write!(f, "bad inference input: {context}"),
        }
    }
}

impl Error for OnDeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            OnDeviceError::BadFormat {
                context: "magic".into(),
            },
            OnDeviceError::Unsupported {
                context: "qr".into(),
            },
            OnDeviceError::OutOfBounds {
                offset: 1,
                len: 2,
                size: 3,
            },
            OnDeviceError::BadInput {
                context: "len".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
