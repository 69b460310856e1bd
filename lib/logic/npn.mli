(** Output-phase normalization of Boolean functions, and the cache-key
    function of the {!Nxc_service} synth cache.

    Two functions are NPN-equivalent when one can be obtained from the
    other by permuting inputs (P), negating a subset of the inputs (N)
    and optionally negating the output (the leading N) — [2{^n+1}·n!]
    transforms in total.  {!transform}, {!apply} and the cover
    relabelings below describe that group.

    {!canonical} does not search it: it considers output negation only
    and returns the smaller of [f] and [not f] (by
    {!Truth_table.compare}), so the transform it returns is always the
    identity on the inputs.  A key then depends only on the function it
    keys, and costs one complement and one compare: a search over the
    whole group costs more than the minimization a cache hit saves. *)

type transform = {
  perm : int array;
      (** [perm.(i)] is the transformed-function input that original
          input [i] reads (a permutation of [0 .. n-1]). *)
  input_neg : bool array;
      (** [input_neg.(i)] negates original input [i]. *)
  output_neg : bool;  (** negate the output after the N/P steps *)
}

val identity : int -> transform
(** The identity transform over [n] inputs. *)

val apply : transform -> Truth_table.t -> Truth_table.t
(** [apply t f] is the function [g] with
    [g(x) = t.output_neg XOR f(y)] where
    [y{_i} = x{_t.perm.(i)} XOR t.input_neg.(i)].
    @raise Invalid_argument on an arity mismatch. *)

val exhaustive_limit : int
(** Largest arity whose canonical form ranges over the whole NPN class:
    [0], where output negation is the whole class. *)

val num_transforms : int -> int
(** [num_transforms n] is [2{^n+1}·n!], the size of the NPN group on
    [n] inputs. *)

val canonical : Truth_table.t -> transform * Truth_table.t
(** [canonical f] is [(t, g)] with [apply t f = g], [g] the smaller of
    [f] and its complement, and [t] the identity except for
    [t.output_neg]. *)

val table_key : Truth_table.t -> string
(** Exact content key of a table: arity plus the table bits in hex.
    Equal tables, and nothing else, share a key. *)

val cover_to_canon : transform -> Cover.t -> Cover.t
(** [cover_to_canon t c] relabels a cover of [f] into the input
    coordinates of [apply t f]: literal [(v, p)] becomes
    [(t.perm.(v), p XOR t.input_neg.(v))].  Output negation is {e not}
    applied — when [t.output_neg] the result covers the complement of
    [apply t f].
    @raise Invalid_argument on an arity mismatch. *)

val cover_of_canon : transform -> Cover.t -> Cover.t
(** Inverse relabeling: [cover_of_canon t (cover_to_canon t c)] is [c]
    cube for cube.
    @raise Invalid_argument on an arity mismatch. *)
