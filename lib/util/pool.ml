(* A fork-join domain pool for the hot kernels (WL refinement, hom-count
   profiles, GNN training, matrix products).

   One process-wide pool is created lazily on the first parallel call.  Its
   size comes from the GLQL_DOMAINS environment variable when set, and from
   [Domain.recommended_domain_count] otherwise; size 1 is a guaranteed
   sequential fallback that never spawns a domain, so single-core behaviour
   is exactly the plain loop.

   Scheduling is work-sharing with an atomic chunk cursor: every
   participant (the caller plus [size - 1] resident worker domains) claims
   contiguous index chunks with a fetch-and-add until the range is
   exhausted, so uneven per-item costs balance out.  Determinism is the
   caller's contract and is easy to keep: items are independent and write
   to caller-owned slots keyed by index, so the output never depends on
   which domain ran which item.

   Nested parallel regions degrade to sequential execution (a domain-local
   flag marks "already inside the pool"), which both avoids deadlock and
   keeps nested kernels bit-identical to their sequential runs. *)

type job = {
  gen : int;
  f : int -> unit;
  n : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  err : exn option Atomic.t;  (* the first exception an item raised *)
  trace_ctx : Trace.context;
      (* The submitting domain's trace context: workers install it while
         running this job's chunks, so spans opened inside pooled kernels
         land in the sink of the request that dispatched the work. *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  has_job : Condition.t;
  job_done : Condition.t;
  mutable job : job option;
  mutable gen : int;
  mutable quit : bool;
  mutable workers : unit Domain.t list;
}

(* True on worker domains and inside an active parallel region or
   [sequential] block: any pool entry point called there runs inline. *)
let busy_key = Domain.DLS.new_key (fun () -> false)

let requested_size () =
  match Sys.getenv_opt "GLQL_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> min k 128
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let size_memo = lazy (requested_size ())

let size () = Lazy.force size_memo

(* Claim and run chunks until the cursor passes [n]; count what we claimed
   and wake the caller when the job's last item completes.  An exception
   stops the current chunk, and once the job has failed every chunk
   claimed after it is counted without running, so the caller neither
   hangs nor waits on work whose result it will discard. *)
let process_chunks pool j =
  let finished = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let lo = Atomic.fetch_and_add j.next j.chunk in
    if lo >= j.n then continue_ := false
    else begin
      let hi = min j.n (lo + j.chunk) in
      (if Option.is_none (Atomic.get j.err) then
         try
           for i = lo to hi - 1 do
             j.f i
           done
         with e -> ignore (Atomic.compare_and_set j.err None (Some e)));
      finished := !finished + (hi - lo)
    end
  done;
  if !finished > 0 then begin
    let before = Atomic.fetch_and_add j.completed !finished in
    if before + !finished = j.n then begin
      Mutex.lock pool.mutex;
      Condition.broadcast pool.job_done;
      Mutex.unlock pool.mutex
    end
  end

let worker pool =
  Domain.DLS.set busy_key true;
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while
      (not pool.quit)
      && (match pool.job with Some j -> j.gen = !last_gen | None -> true)
    do
      Condition.wait pool.has_job pool.mutex
    done;
    if pool.quit then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      let j = match pool.job with Some j -> j | None -> assert false in
      Mutex.unlock pool.mutex;
      last_gen := j.gen;
      Trace.with_context j.trace_ctx (fun () -> process_chunks pool j)
    end
  done

let instance = ref None

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.quit <- true;
  Condition.broadcast pool.has_job;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let get_pool () =
  match !instance with
  | Some p -> p
  | None ->
      let p =
        {
          size = size ();
          mutex = Mutex.create ();
          has_job = Condition.create ();
          job_done = Condition.create ();
          job = None;
          gen = 0;
          quit = false;
          workers = [];
        }
      in
      if p.size > 1 then begin
        p.workers <- List.init (p.size - 1) (fun _ -> Domain.spawn (fun () -> worker p));
        at_exit (fun () -> shutdown p)
      end;
      instance := Some p;
      p

let run_seq ~n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for ?chunk ~n f =
  if n <= 0 then ()
  else if size () = 1 || Domain.DLS.get busy_key || n = 1 then run_seq ~n f
  else begin
    let pool = get_pool () in
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (pool.size * 8))
    in
    let j =
      {
        gen = pool.gen + 1;
        f;
        n;
        chunk;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        err = Atomic.make None;
        trace_ctx = Trace.current_context ();
      }
    in
    Mutex.lock pool.mutex;
    pool.gen <- j.gen;
    pool.job <- Some j;
    Condition.broadcast pool.has_job;
    Mutex.unlock pool.mutex;
    (* The caller is a participant too; mark it busy so nested parallel
       calls inside [f] run inline. *)
    Domain.DLS.set busy_key true;
    process_chunks pool j;
    Domain.DLS.set busy_key false;
    Mutex.lock pool.mutex;
    while Atomic.get j.completed < j.n do
      Condition.wait pool.job_done pool.mutex
    done;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    match Atomic.get j.err with Some e -> raise e | None -> ()
  end

let parallel_map_array f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ~n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map (function Some x -> x | None -> assert false) out
  end

let parallel_reduce ~n ~init ~map ~combine =
  if n <= 0 then init
  else begin
    let out = Array.make n None in
    parallel_for ~n (fun i -> out.(i) <- Some (map i));
    (* Combine strictly in index order: float reductions stay bit-identical
       to the sequential left fold no matter the pool size. *)
    Array.fold_left
      (fun acc slot -> match slot with Some x -> combine acc x | None -> assert false)
      init out
  end

let sequential f =
  let prev = Domain.DLS.get busy_key in
  Domain.DLS.set busy_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set busy_key prev) f
