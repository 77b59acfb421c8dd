(* An LRU cache: a hash table over an intrusive doubly-linked list.

   The list is ordered by recency (head = most recently used); every
   hit splices its node to the head, every insertion beyond capacity
   drops the tail.  All operations take the cache mutex; no
   user-supplied code runs under it — [find_or_add] computes outside
   the lock, with the key marked in flight so concurrent callers of
   the same key wait for that one computation instead of repeating
   it. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards the head (more recent) *)
  mutable next : 'v node option;  (* towards the tail (less recent) *)
}

type 'v t = {
  cap : int;
  prefix : string;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
  in_flight : (string, unit) Hashtbl.t;  (* keys being computed by [find_or_add] *)
  settled : Condition.t;  (* broadcast when an in-flight key settles *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let create ?(metrics_prefix = "cache") ~capacity () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    cap = capacity;
    prefix = metrics_prefix;
    tbl = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
    in_flight = Hashtbl.create 8;
    settled = Condition.create ();
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception exn ->
    Mutex.unlock t.mutex;
    raise exn

let length t = locked t (fun () -> Hashtbl.length t.tbl)

(* list surgery; caller holds the mutex *)

let detach t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    detach t n;
    push_front t n

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
    detach t n;
    Hashtbl.remove t.tbl n.key;
    t.evictions <- t.evictions + 1;
    Metrics.incr (t.prefix ^ "/evictions")

(* a lookup under the mutex, counted as a hit or a miss *)
let lookup t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    touch t n;
    t.hits <- t.hits + 1;
    Metrics.incr (t.prefix ^ "/hits");
    Tsg_obs.Trace.instant (t.prefix ^ "/hit") ~args:[ ("key", key) ];
    Some n.value
  | None ->
    t.misses <- t.misses + 1;
    Metrics.incr (t.prefix ^ "/misses");
    Tsg_obs.Trace.instant (t.prefix ^ "/miss") ~args:[ ("key", key) ];
    None

let find t key =
  Tsg_obs.Failpoint.hit "cache/lookup";
  locked t (fun () -> lookup t key)

(* caller holds the mutex *)
let insert t key v =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    n.value <- v;
    touch t n
  | None ->
    if Hashtbl.length t.tbl >= t.cap then evict_tail t;
    let n = { key; value = v; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n

let add t key v = if t.cap > 0 then locked t (fun () -> insert t key v)

(* single flight: a caller that finds [key] in flight waits for it to
   settle and then looks again, so concurrent callers of one missing
   key compute it once and the others count as hits.  A computation
   that raises caches nothing, and its waiters retry — one of them
   becomes the next computer.  (With no storage there is nothing to
   wait for.) *)
let find_or_add t key compute =
  Tsg_obs.Failpoint.hit "cache/lookup";
  let cached =
    locked t @@ fun () ->
    while t.cap > 0 && Hashtbl.mem t.in_flight key do
      Condition.wait t.settled t.mutex
    done;
    let v = lookup t key in
    if Option.is_none v && t.cap > 0 then Hashtbl.replace t.in_flight key ();
    v
  in
  match cached with
  | Some v -> v
  | None when t.cap = 0 -> compute ()
  | None ->
    let settle f =
      locked t (fun () ->
          f ();
          Hashtbl.remove t.in_flight key;
          Condition.broadcast t.settled)
    in
    (match compute () with
    | v ->
      settle (fun () -> insert t key v);
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      settle ignore;
      Printexc.raise_with_backtrace exn bt)

let remove t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some n ->
    detach t n;
    Hashtbl.remove t.tbl key

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    length = Hashtbl.length t.tbl;
    capacity = t.cap;
  }
