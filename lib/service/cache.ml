(* In-memory LRU store keyed by opaque strings, with JSONL persistence.

   The store is split into N independent shards, each a hashtable plus
   its own mutex and recency clock, selected by a stable hash of the
   key.  Recency is a monotonic tick per entry; eviction scans its
   shard for the minimum, which is fine at the capacities the service
   uses.  With the default single shard the behavior is exactly the
   historical one; the service's concurrent serve mode creates one
   shard per runner slot so cache traffic from different jobs contends
   on different locks. *)

module J = Nxc_obs.Json
module Error = Nxc_guard.Error

let m_hits = Nxc_obs.Metrics.counter "service.cache.hits"
let m_misses = Nxc_obs.Metrics.counter "service.cache.misses"
let m_evictions = Nxc_obs.Metrics.counter "service.cache.evictions"

type entry = { mutable value : J.t; mutable stamp : int }

(* Per-shard instruments ([service.cache.shard<i>.*]) are registered
   lazily, only for multi-shard caches, so single-shard runs (and the
   pinned [stats] snapshots) keep the historical metric surface. *)
type shard_metrics = {
  sm_hits : Nxc_obs.Metrics.counter;
  sm_misses : Nxc_obs.Metrics.counter;
  sm_evictions : Nxc_obs.Metrics.counter;
}

type shard = {
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  metrics : shard_metrics option;
}

type t = { shards_arr : shard array; shard_cap : int }

let make_shard metrics =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); tick = 0; metrics }

let create ?(capacity = 4096) ?(shards = 1) () =
  if capacity <= 0 then invalid_arg "Nxc_service.Cache.create: capacity <= 0";
  if shards <= 0 then invalid_arg "Nxc_service.Cache.create: shards <= 0";
  let shard_cap = (capacity + shards - 1) / shards in
  let metrics i =
    if shards = 1 then None
    else
      Some
        { sm_hits =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.hits" i);
          sm_misses =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.misses" i);
          sm_evictions =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.evictions" i) }
  in
  { shards_arr = Array.init shards (fun i -> make_shard (metrics i));
    shard_cap }

let shards t = Array.length t.shards_arr

(* Stable shard routing: OCaml's polymorphic hash is a fixed
   polynomial over the bytes of a string, so the same key lands on the
   same shard in every run and on every domain. *)
let shard_of t key = Hashtbl.hash key mod Array.length t.shards_arr

let locked sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let size t =
  Array.fold_left
    (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.tbl))
    0 t.shards_arr

let peek t key =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some e -> Some e.value
      | None -> None)

let touch sh e =
  sh.tick <- sh.tick + 1;
  e.stamp <- sh.tick

let find t key =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some e ->
          touch sh e;
          Nxc_obs.Metrics.incr m_hits;
          (match sh.metrics with
          | Some m -> Nxc_obs.Metrics.incr m.sm_hits
          | None -> ());
          Some e.value
      | None ->
          Nxc_obs.Metrics.incr m_misses;
          (match sh.metrics with
          | Some m -> Nxc_obs.Metrics.incr m.sm_misses
          | None -> ());
          None)

(* caller holds the shard lock *)
let evict_lru sh =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, s) when s <= e.stamp -> ()
      | _ -> victim := Some (key, e.stamp))
    sh.tbl;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove sh.tbl key;
      Nxc_obs.Metrics.incr m_evictions;
      (match sh.metrics with
      | Some m -> Nxc_obs.Metrics.incr m.sm_evictions
      | None -> ())
  | None -> ()

let add t key value =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some e ->
          e.value <- value;
          touch sh e
      | None ->
          if Hashtbl.length sh.tbl >= t.shard_cap then evict_lru sh;
          let e = { value; stamp = 0 } in
          touch sh e;
          Hashtbl.add sh.tbl key e)

let default_path = ".nxc-cache"

(* Persistence merges the shards back into one sorted entry list, so
   the on-disk format is identical for every shard count (and to the
   historical single-shard file). *)
let save t path =
  let entries =
    Array.fold_left
      (fun acc sh ->
        locked sh (fun () ->
            Hashtbl.fold (fun k e acc -> (k, e.value) :: acc) sh.tbl acc))
      [] t.shards_arr
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match open_out path with
  | exception Sys_error msg -> Error (Error.internal msg)
  | oc ->
      List.iter
        (fun (k, v) ->
          output_string oc (J.to_string (J.Obj [ ("k", J.Str k); ("v", v) ]));
          output_char oc '\n')
        entries;
      close_out oc;
      Ok (List.length entries)

(* Replayed entries go through [add]: a key already present (replay
   into a warm cache) refreshes its recency exactly like a [find] hit
   would, so a warmed-from-disk cache evicts in true LRU order with
   respect to everything that happened after the load. *)
let load t path =
  if not (Sys.file_exists path) then Ok 0
  else
    match open_in path with
    | exception Sys_error msg -> Error (Error.internal msg)
    | ic ->
        let bad line reason =
          close_in ic;
          Error (Error.invalid_input ~line reason)
        in
        let rec go line count =
          match input_line ic with
          | exception End_of_file ->
              close_in ic;
              Ok count
          | "" -> go (line + 1) count
          | s -> (
              match J.of_string s with
              | exception J.Parse_error msg ->
                  bad line (Printf.sprintf "cache entry: %s" msg)
              | j -> (
                  match (J.member "k" j, J.member "v" j) with
                  | Some (J.Str k), Some v ->
                      add t k v;
                      go (line + 1) (count + 1)
                  | _ -> bad line "cache entry: expected {\"k\": ..., \"v\": ...}"))
        in
        go 1 0
