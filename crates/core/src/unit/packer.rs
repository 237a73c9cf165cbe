//! Element packer: restores stream order from the element path (or takes
//! a contiguous burst's blocks in order) and packs elements densely into
//! 512 b beats, one beat per cycle upstream.

use nmpic_axi::PackRequest;

use super::IndirectStreamUnit;

impl IndirectStreamUnit {
    /// Contiguous responses: extract in-order elements straight into the
    /// packer (budget: one block per cycle).
    pub(super) fn tick_contiguous_responses(&mut self) {
        let Some(PackRequest::Contiguous { elem_size, .. }) = self.burst else {
            return;
        };
        if self.packer.pending() >= elem_size.per_beat() {
            return; // let the packer drain first
        }
        let (packer, stats) = (&mut self.packer, &mut self.stats);
        self.reader.drain_front(|value| {
            packer.push(value);
            stats.elements_delivered += 1;
            stats.payload_bytes += elem_size.bytes() as u64;
            true
        });
    }

    /// Pulls element-path outputs into the packer in stream order, up to
    /// one element per output port per cycle.
    pub(super) fn tick_output_pull(&mut self) {
        if matches!(self.burst, None | Some(PackRequest::Contiguous { .. })) {
            return;
        }
        for _ in 0..self.path.ports() {
            let Some(out) = self.path.pop_output(self.next_pack_seq) else {
                break;
            };
            debug_assert_eq!(out.seq, self.next_pack_seq, "stream order");
            self.packer.push(out.value);
            self.next_pack_seq += 1;
            self.stats.elements_delivered += 1;
            self.stats.payload_bytes += self.cfg.elem_size.bytes() as u64;
        }
    }

    /// Emits at most one beat per cycle upstream (the 512 b R channel).
    pub(super) fn tick_packer(&mut self) {
        if self.beats.is_full() {
            return;
        }
        // A drained burst flushes its last, partial beat.
        let drained = self.stats.elements_delivered == self.burst_end;
        let beat = self
            .packer
            .pop_beat()
            .or_else(|| drained.then(|| self.packer.flush())?);
        if let Some(beat) = beat {
            self.stats.beats_emitted += 1;
            self.beats.push(beat);
        }
    }
}
