(** Altun–Riedel lattice synthesis (DAC 2010, IEEE TC 2012).

    Given SOP covers of a target [f] with products [P1..Pc] and of its
    dual [f{^D}] with products [Q1..Qr], the synthesized lattice has
    [r] rows and [c] columns — the size formula of Fig. 5 — and site
    [(i, j)] carries any literal shared by [Pj] and [Qi].  The sharing
    lemma (see {!Nxc_logic.Dual.check_sharing}) guarantees such a
    literal exists.  The lattice computes [f] top-to-bottom and [f{^D}]
    left-to-right.

    Constant functions degenerate to a single constant site. *)

val synthesize : Nxc_logic.Boolfunc.t -> Lattice.t
(** Minimize [f] and [f{^D}] and build the lattice. *)

val synthesize_from_covers :
  n:int -> f_cover:Nxc_logic.Cover.t -> dual_cover:Nxc_logic.Cover.t -> Lattice.t
(** Build from explicit covers.  Raises [Invalid_argument] when some
    product pair shares no literal (i.e. the covers are not a
    function/dual pair) or when a cover is degenerate (use
    {!synthesize} for constants). *)

val size_formula : Nxc_logic.Boolfunc.t -> int * int
(** [(rows, cols)] = (products of f{^D}, products of f): Fig. 5 without
    building the lattice. *)

val paper_example : unit -> Nxc_logic.Boolfunc.t * Lattice.t
(** The paper's Fig. 4: the 3x2 lattice with columns [(x1,x2,x3)] and
    [(x4,x5,x6)], whose top-to-bottom paths realize
    [f = x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6]. *)
