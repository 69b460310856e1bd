let word_bits = Sys.int_size

let words_for len = (len + word_bits - 1) / word_bits

let tail_mask len =
  let r = len mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

(* SWAR popcount on two 32-bit halves: the 64-bit mask constants do not
   fit a 63-bit native int, the 32-bit ones do. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* mask the multiply back to 32 bits: native ints are wider, so the
     byte-sum trick would otherwise leak into bits above 31 *)
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount x = popcount32 (x land 0xFFFFFFFF) + popcount32 (x lsr 32)

let lowest_set x =
  if x = 0 then invalid_arg "Bitslice.lowest_set";
  popcount ((x land -x) - 1)

let iter_set x f =
  let rest = ref x in
  while !rest <> 0 do
    let bit = !rest land - !rest in
    f (popcount (bit - 1));
    rest := !rest lxor bit
  done

let fill_var ws ~len ~v =
  if v < 0 then invalid_arg "Bitslice.fill_var";
  let nw = words_for len in
  for w = 0 to nw - 1 do
    let base = w * word_bits in
    let hi = min word_bits (len - base) in
    let word = ref 0 in
    for b = 0 to hi - 1 do
      if ((base + b) lsr v) land 1 = 1 then word := !word lor (1 lsl b)
    done;
    ws.(w) <- !word
  done
