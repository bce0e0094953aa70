(* A fixed-size Domain worker pool with a mutex/condition work queue.

   Invariants: [closed] flips once, under the mutex; workers exit only
   when [closed && queue empty]; [domains] is written once right after
   the workers are spawned and joined exactly once ([joined] guards
   idempotent shutdown, including racing shutdown callers). *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  on_error : worker:int -> exn -> unit;
  mutable closed : bool;
  mutable joined : bool;
  mutable domains : unit Domain.t list;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let worker t index =
  let rec loop () =
    let task =
      with_lock t (fun () ->
          while Queue.is_empty t.queue && not t.closed do
            Condition.wait t.nonempty t.mutex
          done;
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
    in
    match task with
    | None -> () (* closed and drained *)
    | Some task ->
      (* The barrier: a faulting task is reported, never propagated. A
         faulting error callback is swallowed outright — the pool's
         liveness outranks its diagnostics. *)
      (try task () with exn -> ( try t.on_error ~worker:index exn with _ -> ()));
      loop ()
  in
  loop ()

let create ?(on_error = fun ~worker:_ _ -> ()) ~workers () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      on_error;
      closed = false;
      joined = false;
      domains = [];
    }
  in
  t.domains <- List.init workers (fun i -> Domain.spawn (fun () -> worker t i));
  t

let workers t = List.length t.domains

let submit t task =
  with_lock t (fun () ->
      if t.closed then invalid_arg "Pool.submit: pool is shut down";
      Queue.push task t.queue;
      Condition.signal t.nonempty)

let pending t = with_lock t (fun () -> Queue.length t.queue)

let shutdown t =
  let to_join =
    with_lock t (fun () ->
        t.closed <- true;
        Condition.broadcast t.nonempty;
        if t.joined then []
        else begin
          t.joined <- true;
          t.domains
        end)
  in
  List.iter Domain.join to_join

(* Single-domain pools kept between [run] calls. OCaml 5.1 is slow to
   reclaim the heap of a domain that has terminated, so a process that
   spawns and joins domains for every short batch grows a major heap
   several times its live data. [run] borrows pools from [idle],
   creating the ones it lacks, and gives them back when its tasks are
   done: the process keeps as many domains as the most [run] workers
   ever busy at once. *)
let idle = ref []
let idle_mutex = Mutex.create ()

let give_back pools = Mutex.protect idle_mutex (fun () -> idle := pools @ !idle)

let borrow k =
  let reused =
    Mutex.protect idle_mutex (fun () ->
        let reused = Ifc_support.Listx.take k !idle in
        idle := Ifc_support.Listx.drop k !idle;
        reused)
  in
  match List.init (k - List.length reused) (fun _ -> create ~workers:1 ()) with
  | fresh -> reused @ fresh
  | exception exn ->
    give_back reused;
    raise exn

let run ?(on_error = fun ~worker:_ _ -> ()) ~workers tasks =
  if workers < 1 then invalid_arg "Pool.run: workers must be >= 1";
  let queue = Queue.of_seq (List.to_seq tasks) in
  let drainers = min workers (Queue.length queue) in
  let mutex = Mutex.create () and finished = Condition.create () and done_ = ref 0 in
  (* Each borrowed pool runs one drainer, which takes this call's tasks
     until none is left, under this call's exception barrier. *)
  let rec drain index () =
    match Mutex.protect mutex (fun () -> Queue.take_opt queue) with
    | None ->
      Mutex.protect mutex (fun () ->
          incr done_;
          Condition.signal finished)
    | Some task ->
      (try task () with exn -> ( try on_error ~worker:index exn with _ -> ()));
      drain index ()
  in
  let pools = borrow drainers in
  List.iteri (fun index pool -> submit pool (drain index)) pools;
  Mutex.protect mutex (fun () ->
      while !done_ < drainers do
        Condition.wait finished mutex
      done);
  give_back pools
