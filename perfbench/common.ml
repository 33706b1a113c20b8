(* Clock, failure accounting and the metric report shared by the
   three workloads. *)

module Native = Nullelim.Native

(* Every interval is timed on the monotonic clock the native backend
   exposes; never [Sys.time] (process CPU time, which counts the work
   of every domain) and never the compiler's own [compile_seconds]. *)
let now_ns () = Int64.to_int (Native.now_ns ())
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* ---- samples ---- *)

(* A growable buffer of float samples, stored unboxed so that the
   benchmark's own bookkeeping barely moves the heap it measures. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let clear t = t.n <- 0
end

(* ---- host speed ---- *)

(* On a shared host, interference from other machines' work comes and
   goes over seconds to minutes and slows everything this process does,
   by up to 1.7x (compile p50 in 2 s windows ranged from 0.92 to
   1.38 ms within one minute on a 2-core x86-64 VM).  The closed-loop
   workloads therefore time a fixed reference kernel between windows of
   about a second of work, and scale each window's times by
   [reference_ms] / (the kernel's mean time at the window's two ends):
   their end-to-end times read as on a host where the kernel takes
   [reference_ms].  On five runs each this halved the spread of every
   scaled metric.  The kernel is pure OCaml (sort, hash, allocate,
   walk) that no change to the repository touches, so a change that
   speeds the system up still shows in full. *)
let reference_kernel () =
  let st = Random.State.make [| 7 |] in
  let h = Hashtbl.create 128 in
  let found = ref 0 in
  (* small blocks only, so the kernel's garbage never reaches the major
     heap that [heap_peak_mb] measures *)
  for _ = 1 to 50 do
    let a = Array.init 200 (fun _ -> Random.State.int st 100_000) in
    Array.sort compare a;
    Hashtbl.reset h;
    Array.iteri (fun i x -> if i land 1 = 0 then Hashtbl.replace h x i) a;
    let l = Array.fold_left (fun acc x -> x :: acc) [] a in
    found := !found + List.length (List.filter (fun x -> Hashtbl.mem h x) l)
  done;
  ignore (Sys.opaque_identity !found)

(* the kernel's time on a quiet 2-core x86-64 VM *)
let reference_ms = 2.07

let reference = Samples.create ()

(* One sample of about 2 ms.  The minor heap is emptied first (untimed),
   so the kernel never collects the workload's young data: its time is
   the host's speed, not the state of the heap. *)
let sample_reference () =
  Gc.minor ();
  let (), ms = time_ms reference_kernel in
  Samples.push reference ms;
  ms

(* the median of three samples, at a window boundary *)
let reference_now () =
  let a = sample_reference () in
  let b = sample_reference () in
  let c = sample_reference () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Windows of work between reference samples.  [close] ends the
   current window: it samples the kernel and returns the factor that
   scales the window's times to the reference host. *)
module Windows = struct
  type t = { mutable last_ref : float; mutable t0 : int }

  let start () =
    let r = reference_now () in
    { last_ref = r; t0 = now_ns () }

  (* returns (scale, wall seconds of the window) *)
  let close w =
    let secs = float_of_int (now_ns () - w.t0) /. 1e9 in
    let r = reference_now () in
    let scale = reference_ms /. ((w.last_ref +. r) /. 2.) in
    w.last_ref <- r;
    w.t0 <- now_ns ();
    (scale, secs)
end

(* ---- operations attempted / failed ---- *)

type ops = { mutable attempted : int; mutable failed : int; mutable shown : int }

let ops = { attempted = 0; failed = 0; shown = 0 }
let attempt () = ops.attempted <- ops.attempted + 1

(* A failed or wrong operation: counted, and the first few are shown on
   stderr.  Nothing is ever skipped. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      ops.failed <- ops.failed + 1;
      if ops.shown < 10 then begin
        ops.shown <- ops.shown + 1;
        prerr_endline ("FAIL: " ^ msg)
      end)
    fmt

(* ---- the metric report ---- *)

type entry = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  note : string;
}

let entries : entry list ref = ref []

let add ?(note = "") ?(samples = 1) name unit_ value =
  entries := { name; value; unit_; samples; note } :: !entries

(* A p99 is reported only with at least ten samples beyond it.  Short
   of that the table says so and the value is the sample maximum, an
   upper bound of the tail. *)
let add_p99 name unit_ (xs : float array) =
  match Stats.tail xs 0.99 with
  | Ok v -> add ~samples:(Array.length xs) name unit_ v
  | Error n ->
    let mx = Array.fold_left Float.max neg_infinity xs in
    add ~samples:n
      ~note:"insufficient samples (fewer than 10 beyond the percentile); value is the maximum"
      name unit_ (if n = 0 then 0. else mx)

let find name = List.find_opt (fun e -> e.name = name) !entries

(* Seeded random state for one purpose of one run. *)
let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up is repeated [repeats] times per run and the median reported,
   so that a change which moves work into set-up shows in [setup_s]
   without one slow repetition deciding the figure.  With [scaled], each
   repetition is scaled to the reference host like a window of work;
   set-up that is mostly an external C compiler is reported as measured. *)
let timed_setups ~repeats ~scaled (setup : unit -> 'a) (teardown : 'a -> unit) : 'a =
  let times = Array.make repeats 0. in
  let last = ref None in
  let r0 = ref (reference_now ()) in
  for i = 0 to repeats - 1 do
    Option.iter teardown !last;
    let t0 = now_ns () in
    let s = setup () in
    let secs = float_of_int (now_ns () - t0) /. 1e9 in
    let r = reference_now () in
    times.(i) <- (if scaled then secs *. reference_ms /. ((!r0 +. r) /. 2.) else secs);
    r0 := r;
    last := Some s
  done;
  add ~samples:repeats
    ~note:(if scaled then "at reference speed" else "")
    "setup_s" "s" (Stats.median times);
  Option.get !last
