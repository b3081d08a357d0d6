//! The program binary as seen (and mutated) by a runtime optimizer.
//!
//! A [`CodeImage`] holds the text segment of a simulated program: a vector of
//! 64-bit instruction words plus symbols and (optional) source comments. Two
//! things make it COBRA-shaped rather than a plain `Vec<u64>`:
//!
//! * **Validated in-place patching** that hands back the word it overwrote —
//!   the `noprefetch` and `.excl` optimizations overwrite single words in the
//!   live image, and the framework may revert a deployment that regressed
//!   performance by writing the old words back.
//! * **A growable trace-cache region** appended after the original text —
//!   optimized traces are "stored in a trace cache in the same address space
//!   as the binary program being optimized" (paper §1), and the original code
//!   is patched with a branch redirecting into it.

use std::collections::BTreeMap;

use crate::encode::{decode, encode, DecodeError};
use crate::insn::Insn;
use crate::{bundle_align, CodeAddr, SLOTS_PER_BUNDLE};

/// Why a patch request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// Address beyond the end of the image.
    OutOfRange(CodeAddr),
    /// Raw word does not decode to a valid instruction.
    InvalidWord(DecodeError),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::OutOfRange(addr) => write!(f, "patch address {addr} out of range"),
            PatchError::InvalidWord(e) => write!(f, "patch word invalid: {e}"),
        }
    }
}

impl std::error::Error for PatchError {}

/// A patchable program text segment with a trace-cache region.
#[derive(Debug, Clone, Default)]
pub struct CodeImage {
    words: Vec<u64>,
    /// Decoded shadow of `words`, kept coherent by every mutation so
    /// [`Self::insn`] is a slot read instead of a per-call decode
    /// (`None` marks a word that does not decode).
    decoded: Vec<Option<Insn>>,
    /// Length of the original (pre-trace-cache) text, in words.
    main_len: u32,
    /// The text's one stamp: moved by every mutation of `words`, so whatever
    /// caches a derived form of the text (the machine's lowered blocks, a
    /// core's cursor into them) is valid exactly while the stamp it copied
    /// still equals this one.
    generation: u64,
    symbols: BTreeMap<String, CodeAddr>,
    comments: BTreeMap<CodeAddr, String>,
}

impl CodeImage {
    /// Build an image from already-encoded words (the assembler's output).
    pub fn from_words(words: Vec<u64>, symbols: BTreeMap<String, CodeAddr>) -> Self {
        let main_len = words.len() as u32;
        let decoded = words.iter().map(|&w| decode(w).ok()).collect();
        CodeImage {
            words,
            decoded,
            main_len,
            generation: 0,
            symbols,
            comments: BTreeMap::new(),
        }
    }

    /// Total image length in words (original text + trace cache).
    #[inline]
    pub fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// True when the image contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Length of the original program text in words.
    #[inline]
    pub fn main_len(&self) -> u32 {
        self.main_len
    }

    /// Does `addr` point into the trace-cache region?
    #[inline]
    pub fn is_trace_addr(&self, addr: CodeAddr) -> bool {
        addr >= self.main_len && addr < self.len()
    }

    /// How many times the text has been mutated ([`Self::patch_word`],
    /// [`Self::append_trace`]) since the image was built.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Raw instruction word at `addr`.
    ///
    /// # Panics
    /// Panics when `addr` is out of range: callers that resolve a guest PC
    /// check it against [`Self::len`] first (the machine faults the thread).
    #[inline]
    pub fn word(&self, addr: CodeAddr) -> u64 {
        self.words[addr as usize]
    }

    /// All words of the image, original text first.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Instruction at `addr`, served from the decoded shadow (the raw word
    /// is only re-decoded to reproduce the error when it is invalid). Panics
    /// when `addr` is out of range, as [`Self::word`] does.
    #[inline]
    pub fn insn(&self, addr: CodeAddr) -> Result<Insn, DecodeError> {
        match self.decoded[addr as usize] {
            Some(insn) => Ok(insn),
            None => decode(self.word(addr)),
        }
    }

    /// Count instructions in the *original text* matching a predicate.
    /// Table 1 of the paper is produced by counting `lfetch`/`br.ctop`/
    /// `br.cloop`/`br.wtop` words this way — from the binary, not from
    /// code-generator metadata.
    pub fn count_matching(&self, mut pred: impl FnMut(&Insn) -> bool) -> usize {
        self.decoded[..self.main_len as usize]
            .iter()
            .filter_map(|d| d.as_ref())
            .filter(|i| pred(i))
            .count()
    }

    /// Overwrite the instruction at `addr`. Returns the previous word, which
    /// is all a caller needs to undo the patch.
    pub fn patch(&mut self, addr: CodeAddr, insn: &Insn) -> Result<u64, PatchError> {
        let new_word = encode(insn);
        self.patch_word(addr, new_word)
    }

    /// Overwrite a raw word at `addr` after validating that it decodes.
    pub fn patch_word(&mut self, addr: CodeAddr, new_word: u64) -> Result<u64, PatchError> {
        if addr >= self.len() {
            return Err(PatchError::OutOfRange(addr));
        }
        let decoded = decode(new_word).map_err(PatchError::InvalidWord)?;
        let old_word = self.words[addr as usize];
        self.words[addr as usize] = new_word;
        self.decoded[addr as usize] = Some(decoded);
        self.generation += 1;
        Ok(old_word)
    }

    /// Append an optimized trace to the trace-cache region. The trace is
    /// placed at the next bundle boundary (padded with `nop.i`); returns its
    /// start address.
    pub fn append_trace(&mut self, insns: &[Insn]) -> CodeAddr {
        use crate::insn::NOP_SLOT_I;
        let start = bundle_align(self.len());
        let push = |img: &mut Self, insn: &Insn| {
            let word = encode(insn);
            img.words.push(word);
            img.decoded.push(decode(word).ok());
        };
        while self.len() < start {
            push(self, &NOP_SLOT_I);
        }
        for insn in insns {
            push(self, insn);
        }
        // Pad the tail so the image always ends on a bundle boundary.
        while !self.len().is_multiple_of(SLOTS_PER_BUNDLE) {
            push(self, &NOP_SLOT_I);
        }
        self.generation += 1;
        start
    }

    /// Look up a symbol (label bound by the assembler).
    pub fn symbol(&self, name: &str) -> Option<CodeAddr> {
        self.symbols.get(name).copied()
    }

    /// All symbols, sorted by name.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, CodeAddr)> {
        self.symbols.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Attach a human-readable comment to an address (shown by the
    /// disassembler, used to reproduce the annotations of Figure 2).
    pub(crate) fn add_comment(&mut self, addr: CodeAddr, text: impl Into<String>) {
        self.comments.insert(addr, text.into());
    }

    /// Comment attached to `addr`, if any.
    pub fn comment(&self, addr: CodeAddr) -> Option<&str> {
        self.comments.get(&addr).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{LfetchHint, Op, NOP_SLOT_M};

    fn tiny_image() -> CodeImage {
        let insns = [
            Insn::new(Op::Lfetch {
                base: 10,
                post_inc: 128,
                hint: LfetchHint::Nt1,
                excl: false,
            }),
            Insn::new(Op::AddI {
                dest: 1,
                src: 1,
                imm: 8,
            }),
            Insn::new(Op::BrCloop { target: 0 }),
        ];
        let words = insns.iter().map(encode).collect();
        CodeImage::from_words(words, BTreeMap::new())
    }

    #[test]
    fn patch_and_revert() {
        let mut img = tiny_image();
        let orig = img.word(0);
        let old = img.patch(0, &NOP_SLOT_M).unwrap();
        assert_eq!(old, orig);
        assert_ne!(img.word(0), orig);
        // Undo is writing the returned word back.
        let patched = img.patch_word(0, old).unwrap();
        assert_eq!(patched, encode(&NOP_SLOT_M));
        assert_eq!(img.word(0), orig);
    }

    #[test]
    fn patch_out_of_range_rejected() {
        let mut img = tiny_image();
        assert_eq!(img.patch(99, &NOP_SLOT_M), Err(PatchError::OutOfRange(99)));
    }

    #[test]
    fn patch_invalid_word_rejected() {
        let mut img = tiny_image();
        assert!(matches!(
            img.patch_word(0, u64::MAX),
            Err(PatchError::InvalidWord(_))
        ));
        // Image unchanged after the failed patch, stamp included.
        assert_eq!(img.words(), tiny_image().words());
        assert_eq!(img.generation(), 0);
    }

    #[test]
    fn trace_region_is_bundle_aligned_and_flagged() {
        let mut img = tiny_image();
        assert_eq!(img.main_len(), 3);
        let trace = [NOP_SLOT_M, NOP_SLOT_M, NOP_SLOT_M, NOP_SLOT_M];
        let start = img.append_trace(&trace);
        assert_eq!(start, 3);
        assert_eq!(start % SLOTS_PER_BUNDLE, 0);
        assert!(img.is_trace_addr(start));
        assert!(!img.is_trace_addr(0));
        assert_eq!(img.len() % SLOTS_PER_BUNDLE, 0, "image ends bundle-aligned");

        let second = img.append_trace(&trace[..1]);
        assert!(second > start);
        assert_eq!(second % SLOTS_PER_BUNDLE, 0);
    }

    #[test]
    fn count_matching_only_scans_original_text() {
        let mut img = tiny_image();
        let lf = Insn::new(Op::Lfetch {
            base: 9,
            post_inc: 0,
            hint: LfetchHint::Nt1,
            excl: true,
        });
        img.append_trace(&[lf]);
        let n = img.count_matching(|i| i.is_lfetch());
        assert_eq!(n, 1, "trace-cache lfetch must not be counted");
    }

    #[test]
    fn symbols_and_comments() {
        let symbols = [("loop".to_string(), 0)].into();
        let mut img = CodeImage::from_words(tiny_image().words().to_vec(), symbols);
        img.add_comment(0, "prefetch y[0]+648");
        assert_eq!(img.symbol("loop"), Some(0));
        assert_eq!(img.comment(0), Some("prefetch y[0]+648"));
        assert_eq!(img.symbol("missing"), None);
        assert_eq!(img.symbols().count(), 1);
    }

    #[test]
    fn decoded_shadow_tracks_every_mutation() {
        let shadow_coherent = |img: &CodeImage| {
            for a in 0..img.len() {
                assert_eq!(
                    img.insn(a).ok(),
                    decode(img.word(a)).ok(),
                    "shadow diverged at {a}"
                );
            }
        };
        let mut img = tiny_image();
        shadow_coherent(&img);
        let old = img.patch(1, &NOP_SLOT_M).unwrap();
        shadow_coherent(&img);
        img.append_trace(&[NOP_SLOT_M, NOP_SLOT_M]);
        shadow_coherent(&img);
        img.patch_word(1, old).unwrap();
        shadow_coherent(&img);
        assert_eq!(img.insn(1).unwrap(), tiny_image().insn(1).unwrap());
        assert_eq!(img.generation(), 3, "one stamp per mutation, a revert too");
    }
}
