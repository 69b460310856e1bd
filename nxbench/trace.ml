(* In-memory span recorder for the traced replay.

   A span is one call into a layer's public function, made from the
   benchmark's own code: name (the layer), job id, start, end and the
   enclosing span.  Spans are kept in memory, safe to record from any
   domain, and written out once at the end.

   Where one public call hides a layer boundary (Minimize reaching the
   SAT cover engine, Flow running synthesis and BISM, Sat_assign running
   the solver), the library's own spans for that inner step are folded
   in as children, renamed to the inner layer. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  job : string;
  start_ns : int;
  stop_ns : int;
}

let next_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : span list ref = ref []
let record s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

(* the open spans of the calling domain, innermost first *)
let open_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* the library's own span clock, so folded library spans share the
   benchmark spans' timeline *)
let now = Nxc_obs.Clock.now_ns

let span ~job name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_key in
  let parent = match !stack with p :: _ -> Some p | [] -> None in
  stack := id :: !stack;
  let start_ns = now () in
  let close () =
    let stop_ns = now () in
    stack := List.tl !stack;
    record { id; parent; name; job; start_ns; stop_ns }
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

(* library span name -> the layer it belongs to *)
let inner_layer = function
  | "sat.min_cover" | "sat.assign" -> Some "sat"
  | "synth.synthesize" -> Some "core.synth"
  | "flow.bism" -> Some "reliability.bism"
  | _ -> None

(* Run [f] inside the current span with library tracing on, and keep
   the library spans [inner_layer] names as children: each attaches to
   its nearest kept library ancestor, or to the current span. *)
let folding_inner ~job f =
  let r, lib = Nxc_obs.Span.collect f in
  let parent_here =
    match !(Domain.DLS.get open_key) with p :: _ -> Some p | [] -> None
  in
  let by_id = Hashtbl.create 16 in
  List.iter (fun (s : Nxc_obs.Span.t) -> Hashtbl.replace by_id s.id s) lib;
  let renamed = Hashtbl.create 16 in
  let rec kept_ancestor (s : Nxc_obs.Span.t) =
    match s.parent with
    | None -> parent_here
    | Some p -> (
        match Hashtbl.find_opt renamed p with
        | Some id -> Some id
        | None -> (
            match Hashtbl.find_opt by_id p with
            | Some ps -> kept_ancestor ps
            | None -> parent_here))
  in
  List.sort
    (fun (a : Nxc_obs.Span.t) (b : Nxc_obs.Span.t) -> compare a.id b.id)
    lib
  |> List.iter (fun (s : Nxc_obs.Span.t) ->
         match inner_layer s.name with
         | None -> ()
         | Some name ->
             let id = Atomic.fetch_and_add next_id 1 in
             let parent = kept_ancestor s in
             Hashtbl.replace renamed s.id id;
             record
               { id;
                 parent;
                 name;
                 job;
                 start_ns = s.start_ns;
                 stop_ns = s.start_ns + s.dur_ns });
  r

let spans () =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) !recorded

let dur s = s.stop_ns - s.start_ns

(* per layer: (calls, total ns, self ns), where self time is a span's
   duration minus the time its direct children cover *)
let by_layer spans =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_ns p
            (dur s + Option.value ~default:0 (Hashtbl.find_opt child_ns p))
      | None -> ())
    spans;
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let c, t, sf =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt table s.name)
      in
      Hashtbl.replace table s.name (c + 1, t + dur s, sf + max 0 self))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort compare

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Nxc_obs.Json.to_string
           (Nxc_obs.Json.Obj
              [ ("id", Nxc_obs.Json.Int s.id);
                ( "parent",
                  match s.parent with
                  | Some p -> Nxc_obs.Json.Int p
                  | None -> Nxc_obs.Json.Null );
                ("name", Nxc_obs.Json.Str s.name);
                ("job", Nxc_obs.Json.Str s.job);
                ("start_ns", Nxc_obs.Json.Int s.start_ns);
                ("end_ns", Nxc_obs.Json.Int s.stop_ns) ]));
      output_char oc '\n')
    spans;
  close_out oc
