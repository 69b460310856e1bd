(* JSON job specs: strict field-checked parsing, canonical
   re-serialization used as the cache key for seeded simulations. *)

module J = Nxc_obs.Json
module Error = Nxc_guard.Error

type spec =
  | Synth of { expr : string; cover_backend : string }
  | Flow of { expr : string; n : int; density : float; seed : int }
  | Bist of { rows : int; cols : int }
  | Bism of {
      n : int;
      k : int;
      density : float;
      seed : int;
      trials : int;
      scheme : string;
    }
  | Yield of { n : int; density : float; seed : int; trials : int }
  | Repair of {
      rows : int;
      cols : int;
      spare_rows : int;
      spare_cols : int;
      density : float;
      seed : int;
      trials : int;
      mode : string;
    }

type t = { id : string option; budget_steps : int option; spec : spec }

let kind t =
  match t.spec with
  | Synth _ -> "synth"
  | Flow _ -> "flow"
  | Bist _ -> "bist"
  | Bism _ -> "bism"
  | Yield _ -> "yield"
  | Repair _ -> "repair"

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of Error.t

let bad fmt = Format.kasprintf (fun s -> raise (Bad (Error.invalid_input s))) fmt

let fields = function
  | J.Obj kvs -> kvs
  | _ -> bad "job spec: expected a JSON object"

let get kvs key = List.assoc_opt key kvs

let str kvs key =
  match get kvs key with
  | Some (J.Str s) -> s
  | Some _ -> bad "job spec: %S must be a string" key
  | None -> bad "job spec: missing required field %S" key

let int_opt kvs key =
  match get kvs key with
  | Some (J.Int i) -> Some i
  | Some _ -> bad "job spec: %S must be an integer" key
  | None -> None

let int_d kvs key default = Option.value ~default (int_opt kvs key)

let str_d kvs key default =
  match get kvs key with None -> default | Some _ -> str kvs key

let float_d kvs key default =
  match get kvs key with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | Some _ -> bad "job spec: %S must be a number" key
  | None -> default

let check_known kvs allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then bad "job spec: unknown field %S" k)
    kvs

(* the range checks of every kind, shared by [of_json] and the CLI *)
let check_spec spec =
  let positive key v = if v <= 0 then bad "job spec: %S must be positive" key in
  let non_negative key v =
    if v < 0 then bad "job spec: %S must be non-negative" key
  in
  let density d =
    if not (d >= 0.0 && d <= 1.0) then
      bad "job spec: %S must be in [0, 1]" "density"
  in
  let one_of what names v =
    if not (List.mem v names) then bad "job spec: unknown %s %S" what v
  in
  match spec with
  | Synth { cover_backend; _ } ->
      one_of "cover backend" [ "bnb"; "sat" ] cover_backend
  | Flow { n; density = d; _ } -> positive "n" n; density d
  | Bist { rows; cols } -> positive "rows" rows; positive "cols" cols
  | Bism { n; k; density = d; trials; scheme; _ } ->
      positive "n" n; positive "k" k; density d; positive "trials" trials;
      one_of "scheme" [ "blind"; "greedy"; "hybrid"; "sat" ] scheme;
      if k > n then bad "job spec: \"k\" must not exceed \"n\""
  | Yield { n; density = d; trials; _ } ->
      positive "n" n; density d; positive "trials" trials
  | Repair { rows; cols; spare_rows; spare_cols; density = d; trials; mode; _ }
    ->
      positive "rows" rows; positive "cols" cols;
      non_negative "spare_rows" spare_rows;
      non_negative "spare_cols" spare_cols;
      density d; positive "trials" trials;
      one_of "repair mode" [ "exact"; "greedy" ] mode

let validate spec = try Ok (check_spec spec) with Bad e -> Error e

let common = [ "kind"; "id"; "budget_steps" ]

let of_json json =
  try
    let kvs = fields json in
    let id =
      match get kvs "id" with
      | Some (J.Str s) -> Some s
      | Some _ -> bad "job spec: \"id\" must be a string"
      | None -> None
    in
    let budget_steps =
      match int_opt kvs "budget_steps" with
      | Some b when b <= 0 -> bad "job spec: \"budget_steps\" must be positive"
      | b -> b
    in
    let spec =
      match str kvs "kind" with
      | "synth" ->
          check_known kvs ("expr" :: "cover_backend" :: common);
          Synth
            { expr = str kvs "expr";
              cover_backend = str_d kvs "cover_backend" "bnb" }
      | "flow" ->
          check_known kvs ("expr" :: "n" :: "density" :: "seed" :: common);
          Flow
            { expr = str kvs "expr"; n = int_d kvs "n" 24;
              density = float_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42 }
      | "bist" ->
          check_known kvs ("rows" :: "cols" :: common);
          Bist { rows = int_d kvs "rows" 8; cols = int_d kvs "cols" 8 }
      | "bism" ->
          check_known kvs
            ("n" :: "k" :: "density" :: "seed" :: "trials" :: "scheme"
            :: common);
          Bism
            { n = int_d kvs "n" 32; k = int_d kvs "k" 12;
              density = float_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42; trials = int_d kvs "trials" 20;
              scheme = str_d kvs "scheme" "hybrid" }
      | "yield" ->
          check_known kvs ("n" :: "density" :: "seed" :: "trials" :: common);
          Yield
            { n = int_d kvs "n" 32; density = float_d kvs "density" 0.05;
              seed = int_d kvs "seed" 1; trials = int_d kvs "trials" 40 }
      | "repair" ->
          check_known kvs
            ("rows" :: "cols" :: "spare_rows" :: "spare_cols" :: "density"
            :: "seed" :: "trials" :: "mode" :: common);
          Repair
            { rows = int_d kvs "rows" 12; cols = int_d kvs "cols" 12;
              spare_rows = int_d kvs "spare_rows" 2;
              spare_cols = int_d kvs "spare_cols" 2;
              density = float_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42; trials = int_d kvs "trials" 20;
              mode = str_d kvs "mode" "exact" }
      | k ->
          bad
            "job spec: unknown kind %S (have: synth, flow, bist, bism, yield, \
             repair)"
            k
    in
    check_spec spec;
    Ok { id; budget_steps; spec }
  with Bad e -> Error e

let of_line line =
  match J.of_string line with
  | exception J.Parse_error msg ->
      Error (Error.invalid_input (Printf.sprintf "job spec: %s" msg))
  | json -> of_json json

(* ------------------------------------------------------------------ *)
(* canonical serialization                                             *)
(* ------------------------------------------------------------------ *)

let spec_fields = function
  | Synth { expr; cover_backend } ->
      (* [cover_backend] is emitted only when non-default so the cache
         keys of pre-existing synth jobs are unchanged. *)
      ("kind", J.Str "synth") :: ("expr", J.Str expr)
      :: (if cover_backend = "bnb" then []
          else [ ("cover_backend", J.Str cover_backend) ])
  | Flow { expr; n; density; seed } ->
      [ ("kind", J.Str "flow"); ("expr", J.Str expr); ("n", J.Int n);
        ("density", J.Float density); ("seed", J.Int seed) ]
  | Bist { rows; cols } ->
      [ ("kind", J.Str "bist"); ("rows", J.Int rows); ("cols", J.Int cols) ]
  | Bism { n; k; density; seed; trials; scheme } ->
      [ ("kind", J.Str "bism"); ("n", J.Int n); ("k", J.Int k);
        ("density", J.Float density); ("seed", J.Int seed);
        ("trials", J.Int trials); ("scheme", J.Str scheme) ]
  | Yield { n; density; seed; trials } ->
      [ ("kind", J.Str "yield"); ("n", J.Int n); ("density", J.Float density);
        ("seed", J.Int seed); ("trials", J.Int trials) ]
  | Repair { rows; cols; spare_rows; spare_cols; density; seed; trials; mode }
    ->
      [ ("kind", J.Str "repair"); ("rows", J.Int rows); ("cols", J.Int cols);
        ("spare_rows", J.Int spare_rows); ("spare_cols", J.Int spare_cols);
        ("density", J.Float density); ("seed", J.Int seed);
        ("trials", J.Int trials); ("mode", J.Str mode) ]

let budget_field t =
  match t.budget_steps with
  | Some b -> [ ("budget_steps", J.Int b) ]
  | None -> []

let to_json t =
  let id = match t.id with Some i -> [ ("id", J.Str i) ] | None -> [] in
  J.Obj (id @ spec_fields t.spec @ budget_field t)

let cache_key t =
  "job:" ^ J.to_string (J.Obj (spec_fields t.spec @ budget_field t))
