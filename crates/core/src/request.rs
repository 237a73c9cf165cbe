//! Narrow request/response records flowing through the adapter.

/// One narrow element request, produced by the element request generator
/// from an index and the burst's element base address.
///
/// `seq` is the element's position in the indirect stream; it determines
/// the packing order at the upstream port. In hardware ordering is
/// recovered structurally (round-robin lane/queue discipline); the model
/// carries `seq` explicitly so every stage can assert it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElemRequest {
    /// Stream position of this element.
    pub seq: u64,
    /// Full byte address of the narrow element in DRAM.
    pub addr: u64,
}

/// One retrieved narrow element on its way to the element packer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElemOut {
    /// Stream position of this element.
    pub seq: u64,
    /// Element bits (low `elem_size` bytes significant).
    pub value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_plain_data() {
        let r = ElemRequest { seq: 3, addr: 128 };
        let copied = r;
        assert_eq!(r, copied);
        let o = ElemOut { seq: 3, value: 42 };
        assert_eq!(o, o.clone());
    }
}
