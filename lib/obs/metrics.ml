(* Process-global metrics registry.  Instrumented modules create their
   instruments once at module-initialization time and then mutate plain
   record fields on the hot path, so recording a value never allocates
   and never takes a lock on the single-domain fast path.

   Parallel sections (Nxc_par) install a per-domain delta *buffer*:
   while one is active, recording and instrument creation are redirected
   by name into the buffer, so worker domains never touch the shared
   registry; the pool merges the buffers back on the main domain at
   join.  The redirection check is one domain-local read per record. *)

type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

(* Log-linear high-dynamic-range histogram: each power-of-two range is
   split into [hdr_sub] linear sub-buckets, so every bucket's width is
   at most 2^-hdr_precision of its lower bound — quantiles come out
   with <= 6.25% relative error over the full non-negative int range.
   Values below [hdr_sub] get exact single-value buckets. *)
let hdr_precision = 4

let hdr_sub = 1 lsl hdr_precision

(* linear region [0, hdr_sub) plus one row of [hdr_sub] sub-buckets per
   octave from 2^hdr_precision up to max_int (bit 61 is the top octave
   of a 63-bit int) *)
let hdr_num_buckets = hdr_sub * (63 - hdr_precision)

type hdr = {
  x_name : string;
  x_buckets : int array;
  mutable x_count : int;
  mutable x_sum : int;
  mutable x_min : int;
  mutable x_max : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hdr of hdr

type buffer = (string, metric) Hashtbl.t

let registry : buffer = Hashtbl.create 64

(* The domain-local active buffer.  [None] (the default everywhere,
   including spawned domains) means "record straight into [registry]". *)
let active_key : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sink () =
  match !(Domain.DLS.get active_key) with
  | Some b -> b
  | None -> registry

let buffer () : buffer = Hashtbl.create 16

let with_buffer b f =
  let slot = Domain.DLS.get active_key in
  let saved = !slot in
  slot := Some b;
  Fun.protect ~finally:(fun () -> slot := saved) f

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Nxc_obs.Metrics: %S already registered as a non-%s" name
       want)

let counter_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace tbl name (Counter c);
      c

let gauge_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name "gauge"
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      Hashtbl.replace tbl name (Gauge g);
      g

let hdr_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (Hdr h) -> h
  | Some _ -> kind_error name "hdr"
  | None ->
      let h =
        { x_name = name;
          x_buckets = Array.make hdr_num_buckets 0;
          x_count = 0;
          x_sum = 0;
          x_min = max_int;
          x_max = 0 }
      in
      Hashtbl.replace tbl name (Hdr h);
      h

let counter name = counter_in (sink ()) name
let gauge name = gauge_in (sink ()) name
let hdr name = hdr_in (sink ()) name

(* Recording through a pre-created handle must also honour the active
   buffer: module-level instruments are global records, but a worker
   domain may only mutate its own buffer's cells. *)

let incr c =
  match !(Domain.DLS.get active_key) with
  | None -> c.c_value <- c.c_value + 1
  | Some b ->
      let bc = counter_in b c.c_name in
      bc.c_value <- bc.c_value + 1

let add c n =
  match !(Domain.DLS.get active_key) with
  | None -> c.c_value <- c.c_value + n
  | Some b ->
      let bc = counter_in b c.c_name in
      bc.c_value <- bc.c_value + n

let counter_value c = c.c_value

let set g v =
  match !(Domain.DLS.get active_key) with
  | None -> g.g_value <- v
  | Some b -> (gauge_in b g.g_name).g_value <- v

let gauge_value g = g.g_value

(* ------------------------------------------------------------------ *)
(* HDR buckets and quantiles                                           *)
(* ------------------------------------------------------------------ *)

let bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let hdr_bucket_of v =
  if v < 0 then invalid_arg "Nxc_obs.Metrics.hdr_bucket_of: negative value"
  else if v < hdr_sub then v
  else begin
    let exp = bits v - 1 - hdr_precision in
    hdr_sub + (exp lsl hdr_precision) + (v lsr exp) - hdr_sub
  end

let hdr_bucket_range i =
  if i < hdr_sub then (i, i)
  else begin
    let i' = i - hdr_sub in
    let exp = i' lsr hdr_precision in
    let sub = i' land (hdr_sub - 1) in
    (* the top bucket's [(hdr_sub + sub + 1) lsl exp] wraps to min_int
       and the [- 1] on to max_int — exactly its upper bound *)
    ((hdr_sub + sub) lsl exp, (((hdr_sub + sub + 1) lsl exp) - 1))
  end

let hdr_observe_cell h v =
  let i = hdr_bucket_of v in
  h.x_buckets.(i) <- h.x_buckets.(i) + 1;
  h.x_count <- h.x_count + 1;
  h.x_sum <- h.x_sum + v;
  if v < h.x_min then h.x_min <- v;
  if v > h.x_max then h.x_max <- v

let hdr_observe h v =
  if v < 0 then invalid_arg "Nxc_obs.Metrics.hdr_observe: negative value";
  match !(Domain.DLS.get active_key) with
  | None -> hdr_observe_cell h v
  | Some b -> hdr_observe_cell (hdr_in b h.x_name) v

let hdr_count h = h.x_count

let hdr_sum h = h.x_sum

(* Smallest bucket upper bound whose cumulative count reaches the
   rank, clamped to the observed [min, max] so exact extremes (p0/p100,
   single samples) come out exact. *)
let hdr_quantile h q =
  if h.x_count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      min h.x_count (max 1 (int_of_float (ceil (q *. float_of_int h.x_count))))
    in
    let acc = ref 0 and result = ref h.x_max in
    (try
       for i = 0 to hdr_num_buckets - 1 do
         acc := !acc + h.x_buckets.(i);
         if !acc >= rank then begin
           result := snd (hdr_bucket_range i);
           raise Exit
         end
       done
     with Exit -> ());
    min h.x_max (max h.x_min !result)
  end

let merge (b : buffer) =
  (* merge into the caller's current sink (normally the registry), so
     nested merges compose; sorted for a deterministic creation order
     of instruments that first appeared inside the buffer *)
  let items =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) b []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
          let dst = counter name in
          dst.c_value <- dst.c_value + c.c_value
      | Gauge g -> (gauge name).g_value <- g.g_value
      | Hdr h ->
          let dst = hdr name in
          for i = 0 to hdr_num_buckets - 1 do
            dst.x_buckets.(i) <- dst.x_buckets.(i) + h.x_buckets.(i)
          done;
          dst.x_count <- dst.x_count + h.x_count;
          dst.x_sum <- dst.x_sum + h.x_sum;
          if h.x_min < dst.x_min then dst.x_min <- h.x_min;
          if h.x_max > dst.x_max then dst.x_max <- h.x_max)
    items

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Hdr h ->
          Array.fill h.x_buckets 0 hdr_num_buckets 0;
          h.x_count <- 0;
          h.x_sum <- 0;
          h.x_min <- max_int;
          h.x_max <- 0)
    (sink ())

let sorted_metrics () =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) (sink ()) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let names () = List.map fst (sorted_metrics ())

(* ------------------------------------------------------------------ *)
(* naming scheme                                                       *)
(* ------------------------------------------------------------------ *)

(* Keep in sync with the scheme documented in metrics.mli; the
   namespace-lint test walks [names ()] against this list. *)
let namespaces =
  [ "bira"; "bism"; "bisr"; "bist"; "bitslice"; "defect"; "espresso";
    "fault_model"; "flow"; "guard"; "isop"; "lattice"; "loadgen"; "minimize";
    "montecarlo"; "npn"; "par"; "qm"; "sat"; "service"; "synth"; "test" ]

let valid_name name =
  let seg_ok s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         s
  in
  match String.split_on_char '.' name with
  | ns :: (_ :: _ as rest) -> List.mem ns namespaces && List.for_all seg_ok (ns :: rest)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let quantile_points = [ ("p50", 0.50); ("p90", 0.90); ("p95", 0.95); ("p99", 0.99) ]

let hdr_json h =
  let buckets = ref [] in
  for i = hdr_num_buckets - 1 downto 0 do
    if h.x_buckets.(i) <> 0 then begin
      let lo, hi = hdr_bucket_range i in
      buckets :=
        Json.Obj
          [ ("ge", Json.Int lo); ("le", Json.Int hi);
            ("n", Json.Int h.x_buckets.(i)) ]
        :: !buckets
    end
  done;
  Json.Obj
    ([ ("count", Json.Int h.x_count);
       ("sum", Json.Int h.x_sum);
       ("min", Json.Int (if h.x_count = 0 then 0 else h.x_min));
       ("max", Json.Int h.x_max) ]
    @ List.map
        (fun (key, q) -> (key, Json.Int (hdr_quantile h q)))
        quantile_points
    @ [ ("buckets", Json.List !buckets) ])

let dump_json () =
  let pick f =
    List.filter_map (fun (name, m) -> f name m) (sorted_metrics ())
  in
  Json.Obj
    [ ( "counters",
        Json.Obj
          (pick (fun name -> function
             | Counter c -> Some (name, Json.Int c.c_value)
             | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (fun name -> function
             | Gauge g -> Some (name, Json.Float g.g_value)
             | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (fun name -> function
             | Hdr h -> Some (name, hdr_json h)
             | _ -> None)) ) ]

let dump_text () =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string b (Printf.sprintf "counter   %-32s %d\n" name c.c_value)
      | Gauge g -> Buffer.add_string b (Printf.sprintf "gauge     %-32s %g\n" name g.g_value)
      | Hdr h ->
          Buffer.add_string b
            (Printf.sprintf
               "hdr       %-32s count=%d sum=%d min=%d max=%d p50=%d p95=%d p99=%d\n"
               name h.x_count h.x_sum
               (if h.x_count = 0 then 0 else h.x_min)
               h.x_max (hdr_quantile h 0.50) (hdr_quantile h 0.95)
               (hdr_quantile h 0.99)))
    (sorted_metrics ());
  Buffer.contents b

(* Prometheus text exposition (version 0.0.4): names are sanitized to
   [a-z0-9_] with a "nanoxcomp_" prefix; histograms emit cumulative
   le-buckets over the non-empty buckets plus "+Inf", _sum and _count. *)
let prom_name name =
  "nanoxcomp_"
  ^ String.map
      (function ('a' .. 'z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

let dump_prometheus () =
  let b = Buffer.create 1024 in
  let header name kind =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (name, m) ->
      let pn = prom_name name in
      match m with
      | Counter c ->
          header pn "counter";
          Buffer.add_string b (Printf.sprintf "%s %d\n" pn c.c_value)
      | Gauge g ->
          header pn "gauge";
          Buffer.add_string b (Printf.sprintf "%s %g\n" pn g.g_value)
      | Hdr h ->
          header pn "histogram";
          let acc = ref 0 in
          for i = 0 to hdr_num_buckets - 1 do
            if h.x_buckets.(i) <> 0 then begin
              acc := !acc + h.x_buckets.(i);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" pn
                   (snd (hdr_bucket_range i)) !acc)
            end
          done;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pn h.x_count);
          Buffer.add_string b (Printf.sprintf "%s_sum %d\n" pn h.x_sum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" pn h.x_count))
    (sorted_metrics ());
  Buffer.contents b
