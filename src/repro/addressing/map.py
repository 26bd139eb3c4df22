"""Interleaved and hybrid (scrambled) L1 address maps.

MemPool interleaves the shared L1 address space across all banks of all tiles
to minimise banking conflicts (Section IV, Figure 4).  The address fields of
the fully interleaved map, from least to most significant bit, are::

    | byte offset (2) | bank offset (b) | tile offset (t) | row offset (...) |

The *hybrid* map applies the scrambling logic to addresses that fall inside
the sequential region (the first ``2**(S+t)`` bytes of L1): the ``s`` bits
immediately above the bank offset are swapped with the ``t`` tile-offset bits
above them.  The result is that each tile owns a contiguous ``2**S``-byte
window of the address space (its *sequential region*) mapped onto its own
banks, while addresses outside the region remain fully interleaved.  The same
transformation is applied for every core, so all cores keep an identical,
shared view of L1 — the scheme changes *placement*, not *visibility*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import WORD_BYTES, MemPoolConfig


@dataclass(frozen=True)
class BankLocation:
    """Physical location of a word in the banked L1 memory."""

    tile: int
    bank: int
    row: int

    def global_bank(self, banks_per_tile: int) -> int:
        """Global bank index of this location."""
        return self.tile * banks_per_tile + self.bank


class AddressMap:
    """Base class for L1 address maps.

    An address map translates byte addresses into bank locations
    (tile, bank-within-tile, row-within-bank) and back.  Concrete maps differ
    only in the *scrambling* step applied before the interleaved decode.
    """

    def __init__(self, config: MemPoolConfig) -> None:
        self.config = config
        self._byte_bits = config.byte_offset_bits
        self._bank_bits = config.bank_offset_bits
        self._tile_bits = config.tile_offset_bits
        self._seq_row_bits = config.seq_row_bits
        self._bank_shift = self._byte_bits
        self._tile_shift = self._byte_bits + self._bank_bits
        self._row_shift = self._tile_shift + self._tile_bits
        #: The tile offset sits directly above the bank offset, so the two
        #: fields read as one are the global bank index.
        self._global_bank_mask = (1 << (self._bank_bits + self._tile_bits)) - 1
        self._size = config.l1_bytes

    # -- scrambling hooks ------------------------------------------------ #

    def scramble(self, address: int) -> int:
        """Map a program-visible address to the physical (interleaved) address."""
        raise NotImplementedError

    def unscramble(self, address: int) -> int:
        """Inverse of :meth:`scramble`."""
        raise NotImplementedError

    # -- decoding -------------------------------------------------------- #

    def check_address(self, address: int) -> None:
        """Raise ``ValueError`` if ``address`` falls outside the L1 region."""
        if not 0 <= address < self._size:
            raise ValueError(
                f"address {address:#x} outside the L1 region [0, {self._size:#x})"
            )

    def decode(self, address: int) -> BankLocation:
        """Return the bank location addressed by the program-visible ``address``."""
        self.check_address(address)
        physical = self.scramble(address)
        bank = (physical >> self._bank_shift) & (self.config.banks_per_tile - 1)
        tile = (physical >> self._tile_shift) & (self.config.num_tiles - 1)
        row = physical >> self._row_shift
        return BankLocation(tile=tile, bank=bank, row=row)

    def encode(self, location: BankLocation) -> int:
        """Return the program-visible address of ``location`` (inverse of decode)."""
        if not 0 <= location.tile < self.config.num_tiles:
            raise ValueError(f"tile {location.tile} out of range")
        if not 0 <= location.bank < self.config.banks_per_tile:
            raise ValueError(f"bank {location.bank} out of range")
        if not 0 <= location.row < self.config.bank_words:
            raise ValueError(f"row {location.row} out of range")
        physical = (
            (location.row << self._row_shift)
            | (location.tile << self._tile_shift)
            | (location.bank << self._bank_shift)
        )
        return self.unscramble(physical)

    # -- convenience ----------------------------------------------------- #

    def tile_of(self, address: int) -> int:
        """Tile index targeted by ``address``."""
        return self.decode(address).tile

    def global_bank_of(self, address: int) -> int:
        """Global bank index targeted by ``address`` (``decode(...).global_bank``)."""
        self.check_address(address)
        return (self.scramble(address) >> self._bank_shift) & self._global_bank_mask

    def is_local(self, address: int, tile: int) -> bool:
        """True if ``address`` maps to a bank inside ``tile``."""
        return self.tile_of(address) == tile

    def word_index(self, address: int) -> int:
        """Index of the 32-bit word containing ``address`` in a flat L1 array."""
        self.check_address(address)
        return address // WORD_BYTES

    def sequential_base(self, tile: int) -> int:
        """Program-visible base address of ``tile``'s sequential region.

        Only meaningful for the hybrid map; the interleaved map raises
        ``ValueError`` since it has no sequential regions.
        """
        raise NotImplementedError


class InterleavedAddressMap(AddressMap):
    """The fully interleaved address map (scrambling disabled)."""

    def scramble(self, address: int) -> int:
        return address

    def unscramble(self, address: int) -> int:
        return address

    def sequential_base(self, tile: int) -> int:
        raise ValueError(
            "the interleaved address map has no per-tile sequential regions"
        )


class HybridAddressMap(AddressMap):
    """The hybrid address map produced by the scrambling logic (Figure 4)."""

    def __init__(self, config: MemPoolConfig) -> None:
        super().__init__(config)
        self._seq_total = config.seq_region_total_bytes
        self._low_shift = self._tile_shift
        self._s = self._seq_row_bits
        self._t = self._tile_bits
        self._low_mask = (1 << self._s) - 1
        self._high_mask = (1 << self._t) - 1

    def _in_sequential_region(self, address: int) -> bool:
        return address < self._seq_total

    def scramble(self, address: int) -> int:
        if not self._in_sequential_region(address):
            return address
        upper = address >> (self._low_shift + self._s + self._t)
        seq_row = (address >> self._low_shift) & self._low_mask
        tile = (address >> (self._low_shift + self._s)) & self._high_mask
        lower = address & ((1 << self._low_shift) - 1)
        return (
            (upper << (self._low_shift + self._s + self._t))
            | (seq_row << (self._low_shift + self._t))
            | (tile << self._low_shift)
            | lower
        )

    def unscramble(self, address: int) -> int:
        if not self._in_sequential_region(address):
            return address
        upper = address >> (self._low_shift + self._s + self._t)
        tile = (address >> self._low_shift) & self._high_mask
        seq_row = (address >> (self._low_shift + self._t)) & self._low_mask
        lower = address & ((1 << self._low_shift) - 1)
        return (
            (upper << (self._low_shift + self._s + self._t))
            | (tile << (self._low_shift + self._s))
            | (seq_row << self._low_shift)
            | lower
        )

    def sequential_base(self, tile: int) -> int:
        if not 0 <= tile < self.config.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return tile * self.config.seq_region_bytes_per_tile

    @property
    def sequential_region_bytes(self) -> int:
        """Size of each tile's sequential region in bytes."""
        return self.config.seq_region_bytes_per_tile


def make_address_map(config: MemPoolConfig) -> AddressMap:
    """Build the address map selected by ``config.scrambling_enabled``."""
    if config.scrambling_enabled:
        return HybridAddressMap(config)
    return InterleavedAddressMap(config)
