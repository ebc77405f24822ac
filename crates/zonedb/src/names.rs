//! Invertible label generation: domain index <-> pronounceable label.
//!
//! Each index is written in base-64 using a fixed table of two-letter
//! syllables, producing labels like `bakedu` or `zosifexa`. Because the
//! encoding is a bijection, an authoritative model can answer "is this
//! label registered?" by decoding it back to an index and checking the
//! index against the zone size — no stored name list needed.

/// The 64 syllables; index = digit value. All distinct two-letter
/// strings so decoding is an unambiguous chunk-by-chunk table lookup.
const SYLLABLES: [&str; 64] = [
    "ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du", "fa", "fe", "fi", "fo", "fu", "ga",
    "ge", "gi", "go", "gu", "ha", "he", "hi", "ho", "hu", "ja", "je", "ji", "jo", "ju", "ka", "ke",
    "ki", "ko", "ku", "la", "le", "li", "lo", "lu", "ma", "me", "mi", "mo", "mu", "na", "ne", "ni",
    "no", "nu", "pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so",
];

/// The syllables' consonants and vowels: syllable `c * 5 + v` is
/// consonant `c` then vowel `v` ("so", 63, is the last; "su" is no
/// digit).
const CONSONANTS: &[u8; 13] = b"bdfghjklmnprs";
const VOWELS: &[u8; 5] = b"aeiou";

/// Marks a [`SYLLABLE_PART`] entry as a consonant or a vowel; the low
/// bits are its index.
const CONSONANT: u8 = 0x80;
const VOWEL: u8 = 0x40;

/// What each octet is in a syllable: `CONSONANT | c`, `VOWEL | v`, or 0.
/// Both cases of an ASCII letter map alike and nothing else folds, so a
/// syllable decodes in two lookups, as DNS compares names (RFC 4343).
const SYLLABLE_PART: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < CONSONANTS.len() {
        table[CONSONANTS[i] as usize] = CONSONANT | i as u8;
        table[CONSONANTS[i].to_ascii_uppercase() as usize] = CONSONANT | i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < VOWELS.len() {
        table[VOWELS[i] as usize] = VOWEL | i as u8;
        table[VOWELS[i].to_ascii_uppercase() as usize] = VOWEL | i as u8;
        i += 1;
    }
    table
};

/// The digit a two-octet syllable stands for.
fn syllable_digit(syllable: &[u8]) -> Option<u64> {
    let (c, v) = (
        SYLLABLE_PART[syllable[0] as usize],
        SYLLABLE_PART[syllable[1] as usize],
    );
    if c & !0x3f != CONSONANT || v & !0x3f != VOWEL {
        return None;
    }
    let digit = (c & 0x3f) as u64 * VOWELS.len() as u64 + (v & 0x3f) as u64;
    (digit < SYLLABLES.len() as u64).then_some(digit)
}

/// Longest generated label: a one-letter prefix plus the eleven
/// syllables that cover `u64`.
const MAX_GENERATED_LEN: usize = 23;

/// A generated label, held on the stack.
pub(crate) struct Label {
    buf: [u8; MAX_GENERATED_LEN],
    len: usize,
}

impl Label {
    fn new() -> Label {
        Label {
            buf: [0; MAX_GENERATED_LEN],
            len: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Append the syllables of `idx`, most significant digit first.
    fn push_syllables(&mut self, mut idx: u64) {
        let mut digits = 1;
        let mut rest = idx / 64;
        while rest > 0 {
            digits += 1;
            rest /= 64;
        }
        let end = self.len + 2 * digits;
        for syllable in self.buf[self.len..end].chunks_exact_mut(2).rev() {
            syllable.copy_from_slice(SYLLABLES[(idx % 64) as usize].as_bytes());
            idx /= 64;
        }
        self.len = end;
    }

    /// The label's octets (lowercase ASCII letters).
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    fn string(&self) -> String {
        String::from_utf8_lossy(self.as_bytes()).into_owned()
    }
}

/// [`encode_label`] without the `String`.
pub(crate) fn label(idx: u64) -> Label {
    let mut label = Label::new();
    label.push_syllables(idx);
    label
}

/// Encode an index as a syllable label (most significant digit first).
///
/// ```
/// assert_eq!(zonedb::names::encode_label(0), "ba");
/// assert_eq!(zonedb::names::decode_label("ba"), Some(0));
/// ```
pub fn encode_label(idx: u64) -> String {
    label(idx).string()
}

/// Decode a syllable label back to its index; `None` if the octets are
/// not a valid encoding (odd length, unknown syllable, non-canonical
/// leading zero). Case is folded as DNS folds it: ASCII letters only
/// (RFC 4343), so `BA` is `ba` but a Unicode look-alike of `k` is not
/// `k`. Allocation-free: two table lookups a syllable.
pub fn decode_label(label: impl AsRef<[u8]>) -> Option<u64> {
    let label = label.as_ref();
    if label.is_empty() || !label.len().is_multiple_of(2) || label.len() > 22 {
        return None;
    }
    let mut idx: u64 = 0;
    for syllable in label.chunks_exact(2) {
        idx = idx
            .checked_mul(64)?
            .checked_add(syllable_digit(syllable)?)?;
    }
    // reject non-canonical encodings like "baba" for 0 ("ba"): only a
    // one-syllable label may start with the zero digit
    if label.len() > 2 && idx < 64u64.pow(label.len() as u32 / 2 - 1) {
        return None;
    }
    Some(idx)
}

/// The real anchor TLDs of the root-zone model.
const ANCHOR_TLDS: [&str; 12] = [
    "nl", "nz", "com", "net", "org", "de", "uk", "fr", "jp", "br", "io", "info",
];

/// [`tld_label`] without the `String`.
pub(crate) fn tld(i: usize) -> Label {
    let mut label = Label::new();
    match ANCHOR_TLDS.get(i) {
        Some(anchor) => label.push(anchor.as_bytes()),
        None => {
            // 't' prefix keeps synthetic TLDs out of the syllable namespace
            label.push(b"t");
            label.push_syllables((i - ANCHOR_TLDS.len()) as u64);
        }
    }
    label
}

/// The generated TLD inventory for the root-zone model: a handful of
/// real anchor TLDs (so the ccTLD studies compose) plus synthesized
/// ones up to `count`.
pub fn tld_label(i: usize) -> String {
    tld(i).string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bijection_small() {
        for i in 0..5000u64 {
            let l = encode_label(i);
            assert_eq!(decode_label(&l), Some(i), "label {l}");
        }
    }

    #[test]
    fn bijection_large() {
        for i in [1u64 << 20, 1 << 32, u64::MAX / 3, u64::MAX] {
            let l = encode_label(i);
            assert!(l.len() <= 22);
            assert_eq!(decode_label(&l), Some(i));
        }
    }

    #[test]
    fn labels_are_dns_safe() {
        for i in (0..100_000u64).step_by(997) {
            let l = encode_label(i);
            assert!(l.len() <= 63);
            assert!(l.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn invalid_strings_decode_to_none() {
        for s in ["", "b", "xx", "ba7", "hello", "qa", "bax", "ba-"] {
            assert_eq!(decode_label(s), None, "{s:?}");
        }
    }

    #[test]
    fn case_folds_as_dns_does() {
        // ASCII letters fold (RFC 4343) ...
        assert_eq!(decode_label("BA"), Some(0));
        assert_eq!(decode_label("Ka"), decode_label("ka"));
        // ... and nothing else does: U+212A KELVIN SIGN lower-cases to
        // `k` under Unicode rules, but its octets are not `k`
        assert_eq!(decode_label("\u{212a}a"), None);
        assert_eq!(decode_label([0xe2, 0x84, 0xaa, b'a']), None);
    }

    /// `decode_label` as it was: a linear, case-folding search of the
    /// syllable table per syllable.
    fn decode_by_search(label: &[u8]) -> Option<u64> {
        if label.is_empty() || !label.len().is_multiple_of(2) || label.len() > 22 {
            return None;
        }
        let mut idx: u64 = 0;
        for syllable in label.chunks(2) {
            let d = SYLLABLES
                .iter()
                .position(|s| s.as_bytes().eq_ignore_ascii_case(syllable))?;
            idx = idx.checked_mul(64)?.checked_add(d as u64)?;
        }
        if label.len() > 2 && idx < 64u64.pow(label.len() as u32 / 2 - 1) {
            return None;
        }
        Some(idx)
    }

    #[test]
    fn table_agrees_with_the_search_on_every_two_octets() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    decode_label([a, b]),
                    decode_by_search(&[a, b]),
                    "{a:#04x} {b:#04x}"
                );
            }
        }
    }

    proptest! {
        /// Labels of up to 24 octets built from syllables, near misses
        /// ("su", odd letters, digits) and the KELVIN SIGN's octets, in
        /// any case mix: the table decodes what the search decoded.
        #[test]
        fn table_agrees_with_the_search_on_random_labels(
            pieces in prop::collection::vec(0usize..72, 1..=12),
            case in any::<u64>(),
            cut in 0usize..=24,
        ) {
            let mut label: Vec<u8> = Vec::new();
            for p in pieces {
                let piece: &[u8] = match p {
                    0..=63 => SYLLABLES[p].as_bytes(),
                    64 => b"su",
                    65 => "\u{212a}".as_bytes(),
                    66 => b"k",
                    67 => b"q",
                    68 => b"7",
                    69 => b"-",
                    70 => b"BA",
                    _ => &[0xe2, 0x84],
                };
                label.extend_from_slice(piece);
            }
            for (i, b) in label.iter_mut().enumerate() {
                if case >> (i % 64) & 1 == 1 {
                    *b = b.to_ascii_uppercase();
                }
            }
            label.truncate(cut.max(1));
            prop_assert_eq!(decode_label(&label), decode_by_search(&label), "{:?}", label);
        }
    }

    #[test]
    fn non_canonical_rejected() {
        // "ba" is digit 0; a leading zero digit would be "ba" + encode(x)
        let padded = format!("ba{}", encode_label(5));
        assert_eq!(decode_label(&padded), None);
    }

    #[test]
    fn distinct_indices_distinct_labels() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..20_000u64 {
            assert!(seen.insert(encode_label(i)));
        }
    }

    #[test]
    fn tld_inventory() {
        assert_eq!(tld_label(0), "nl");
        assert_eq!(tld_label(1), "nz");
        assert_eq!(tld_label(2), "com");
        assert!(tld_label(12).starts_with('t'));
        assert_ne!(tld_label(12), tld_label(13));
    }
}
