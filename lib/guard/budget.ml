module Obs = Nxc_obs

type policy = Fail | Degrade

(* the mutable accounting state, shared between policy views of the
   same budget (see {!degrading}) *)
type core = {
  label : string;
  max_steps : int;  (** [max_int] = uncapped *)
  deadline_ns : int;  (** [max_int] = none *)
  start_ns : int;
  mutable steps : int;
  mutable dead : bool;
}

type t = { core : core; policy : policy }

let m_created = Obs.Metrics.counter "guard.budgets"
let m_exhausted = Obs.Metrics.counter "guard.budget_exhausted"
let m_degradations = Obs.Metrics.counter "guard.degradations"

(* deadline checks hit the clock only every [check_mask + 1] steps *)
let check_mask = 63

let unlimited =
  { core =
      { label = "unlimited";
        max_steps = max_int;
        deadline_ns = max_int;
        start_ns = 0;
        steps = 0;
        dead = false };
    policy = Degrade }

let create ?(label = "budget") ?(policy = Degrade) ?steps ?deadline_ms () =
  Obs.Metrics.incr m_created;
  let start_ns = Obs.Clock.now_ns () in
  let deadline_ns =
    match deadline_ms with
    | None -> max_int
    | Some ms when ms <= 0.0 -> start_ns
    | Some ms ->
        let d = ms *. 1e6 in
        if d >= float_of_int (max_int - start_ns) then max_int
        else start_ns + int_of_float d
  in
  { core =
      { label;
        max_steps = (match steps with None -> max_int | Some s -> max 0 s);
        deadline_ns;
        start_ns;
        steps = 0;
        dead = false };
    policy }

let trip c =
  if not c.dead then begin
    c.dead <- true;
    Obs.Metrics.incr m_exhausted
  end;
  false

(* the clock is read when the charged steps [before, before + k) cross
   a multiple of [check_mask + 1], so [charge t 1] reads it exactly when
   a run of single steps would *)
let charge { core = c; _ } k =
  if c.dead then false
  else begin
    let before = c.steps in
    c.steps <- before + k;
    if c.steps > c.max_steps then trip c
    else if
      c.deadline_ns <> max_int
      && (let off = before land check_mask in
          off = 0 || off + k > check_mask + 1)
      && Obs.Clock.now_ns () >= c.deadline_ns
    then trip c
    else true
  end

let step t = charge t 1

let alive t = not t.core.dead
let exhausted t = t.core.dead
let steps_used t = t.core.steps
let policy t = t.policy
let label t = t.core.label
let degrading t = if t.policy = Degrade then t else { t with policy = Degrade }

let error t : Error.t =
  let c = t.core in
  `Budget_exhausted
    { Error.label = c.label;
      steps = c.steps;
      elapsed_ns =
        (if c.start_ns = 0 then 0 else Obs.Clock.now_ns () - c.start_ns) }

let degrade site =
  Obs.Metrics.incr m_degradations;
  Obs.Metrics.incr (Obs.Metrics.counter ("guard.degrade." ^ site))

let is_limited t =
  t.core.max_steps <> max_int || t.core.deadline_ns <> max_int

let remaining t =
  let c = t.core in
  if c.max_steps = max_int then None
  else Some (if c.dead then 0 else max 0 (c.max_steps - c.steps))

let partition t n =
  let n = max 1 n in
  let c = t.core in
  let remaining =
    if c.max_steps = max_int then max_int else max 0 (c.max_steps - c.steps)
  in
  Array.init n (fun i ->
      Obs.Metrics.incr m_created;
      { core =
          { label = Printf.sprintf "%s/w%d" c.label i;
            max_steps = (if remaining = max_int then max_int else remaining / n);
            deadline_ns = c.deadline_ns;
            start_ns = c.start_ns;
            steps = 0;
            dead = c.dead };
        policy = Degrade })

let absorb t slices =
  let c = t.core in
  let used =
    Array.fold_left (fun acc s -> acc + s.core.steps) 0 slices
  in
  c.steps <- c.steps + used;
  if c.steps > c.max_steps then ignore (trip c)

(* The ambient budget is domain-local: a freshly spawned worker domain
   starts unlimited, and Nxc_par installs each worker's partition slice
   for the duration of a parallel batch without the domains ever
   sharing a mutable budget. *)
let cur_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> unlimited)

let current () = Domain.DLS.get cur_key
let set_current t = Domain.DLS.set cur_key t

let with_current t f =
  let saved = current () in
  set_current t;
  Fun.protect ~finally:(fun () -> set_current saved) f

let resolve = function Some g -> g | None -> current ()
