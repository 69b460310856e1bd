(** Word-level bit-parallel primitives.

    The shared substrate of the evaluation kernels: {!Bitvec} packs its
    bits into native-int words through this module, and the bit-sliced
    lattice evaluator ([Nxc_lattice.Lattice.eval_all]) lays one input
    assignment per bit across [int array] slabs.  Everything here works
    on raw words or raw word arrays; no allocation beyond what the
    caller hands in.

    {b Layout.}  A vector of [len] bits occupies [words_for len] native
    ints; bit [i] lives in word [i / word_bits] at offset
    [i mod word_bits].  Bits at positions [>= len] in the last word are
    kept zero ("normalized") so that word-level comparison, popcount
    and reduction are exact. *)

val word_bits : int
(** Usable bits per word — [Sys.int_size] (63 on 64-bit platforms). *)

val words_for : int -> int
(** Number of words needed for a [len]-bit vector. *)

val tail_mask : int -> int
(** [tail_mask len] has a 1 in every position the last word of a
    [len]-bit vector actually uses ([-1] when [len] is a multiple of
    [word_bits], including [len = 0]). *)

val popcount : int -> int
(** Number of set bits in one word, over the full native-int width.
    Branch-free SWAR; the shared popcount of {!Bitvec.popcount} and
    [Cube.num_literals]. *)

val lowest_set : int -> int
(** Bit offset of the least-significant set bit.
    @raise Invalid_argument on [0]. *)

val iter_set : int -> (int -> unit) -> unit
(** [iter_set w f] calls [f] on the offset of every set bit of [w] in
    ascending order.  The workhorse of word-level syndrome extraction:
    a kernel XORs expected against observed words and only the (rare)
    non-zero result pays a per-bit visit, so the common all-match case
    costs one comparison per word. *)

val fill_var : int array -> len:int -> v:int -> unit
(** Fill with the {e variable pattern} of input variable [v] over the
    assignment space [0 .. len - 1]: bit [m] is set iff
    [(m lsr v) land 1 = 1].  This is the conduction word of a positive
    literal in the bit-sliced lattice layout (one assignment per bit). *)
