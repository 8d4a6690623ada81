type t = Block.t list

let default_acl () = Nfp_nf.Firewall.default_acl 100

let firewall ?acl () =
  let acl = match acl with Some a -> a | None -> default_acl () in
  [
    Block.read_packets ();
    Block.header_classifier ~name:"hc" ~acl;
    Block.alert ~name:"alert_fw" ~source:"firewall";
    Block.output ();
  ]

let ips ?acl () =
  let acl = match acl with Some a -> a | None -> default_acl () in
  let signatures = Nfp_nf.Ids.default_signatures 100 in
  [
    Block.read_packets ();
    Block.header_classifier ~name:"hc" ~acl;
    Block.dpi ~name:"dpi" ~signatures;
    Block.alert ~name:"alert_ips" ~source:"ips";
    Block.output ();
  ]

type merged = { shared : Block.t list; tail : Block.t list }

let is_output (b : Block.t) = b.kind = "Output"

let merge a b =
  let rec common acc = function
    | x :: xs, y :: ys when Block.same_work x y -> common (x :: acc) (xs, ys)
    | rest -> (List.rev acc, rest)
  in
  let shared, (rest_a, rest_b) = common [] (a, b) in
  (* A single shared Output terminates the merged graph. *)
  let strip l = List.filter (fun b -> not (is_output b)) l in
  let outputs = List.exists is_output (rest_a @ rest_b) in
  let tail = strip rest_a @ strip rest_b @ if outputs then [ Block.output () ] else [] in
  { shared; tail }

let stages merged =
  (* The terminal Output block is pinned last (Position semantics). *)
  let body = List.filter (fun b -> not (is_output b)) merged.tail in
  let outputs = List.filter is_output merged.tail in
  let merged = { merged with tail = body } in
  let items = List.map (fun (b : Block.t) -> b.name) merged.tail in
  let profile_of name =
    match List.find_opt (fun (b : Block.t) -> b.name = name) merged.tail with
    | Some b -> b.profile
    | None -> raise Not_found
  in
  (* The tail keeps its pipeline order as the intended sequential
     order; independent blocks land in the same stage. *)
  let ordered =
    let rec pairs = function
      | x :: (y :: _ as rest) -> (x, y) :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs items
  in
  let staged =
    Nfp_core.Micrograph.order_items ~items ~profile_of ~ordered ~forced_parallel:[] ()
  in
  let block name =
    match List.find_opt (fun (b : Block.t) -> b.name = name) merged.tail with
    | Some b -> b
    | None -> assert false
  in
  List.map (fun b -> [ b ]) merged.shared
  @ List.map (fun stage -> List.map block stage) staged.stages
  @ match outputs with [] -> [] | os -> [ os ]

let total_cycles t = List.fold_left (fun acc (b : Block.t) -> acc + b.cost_cycles) 0 t

let staged_cycles stages =
  List.fold_left
    (fun acc stage ->
      acc + List.fold_left (fun m (b : Block.t) -> max m b.cost_cycles) 0 stage)
    0 stages

let execute stages pkt =
  let outcomes = ref [] in
  (try
     List.iter
       (fun stage ->
         List.iter
           (fun (b : Block.t) ->
             let o = b.process pkt in
             outcomes := o :: !outcomes;
             match o with Block.Dropped -> raise Exit | Block.Continue | Block.Alerted _ -> ())
           stage)
       stages
   with Exit -> ());
  List.rev !outcomes

let pp_stages fmt stages =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f " -> ")
       (fun f stage ->
         match stage with
         | [ b ] -> Block.pp f b
         | bs ->
             Format.pp_print_string f "(";
             Format.pp_print_list
               ~pp_sep:(fun f () -> Format.pp_print_string f " | ")
               Block.pp f bs;
             Format.pp_print_string f ")"))
    stages

(* Blocks as NFs: the dataplane then treats a block pipeline exactly
   like a service graph of micro-NFs (paper §7: "NF parallelism can be
   implemented in the granularity of building blocks"). *)
let block_nf (b : Block.t) =
  let alerts = ref 0 in
  Nfp_nf.Nf.make ~name:b.name ~kind:("block:" ^ b.kind) ~profile:b.profile
    ~cost_cycles:(fun _ -> b.cost_cycles)
    ~state_digest:(fun () -> !alerts)
    (fun pkt ->
      match b.process pkt with
      | Block.Continue -> Nfp_nf.Nf.Forward
      | Block.Dropped -> Nfp_nf.Nf.Dropped
      | Block.Alerted _ ->
          incr alerts;
          Nfp_nf.Nf.Forward)

let to_deployment stages =
  let graph =
    Nfp_core.Graph.seq
      (List.map
         (fun stage ->
           Nfp_core.Graph.par
             (List.map (fun (b : Block.t) -> Nfp_core.Graph.nf b.name) stage))
         stages)
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun stage -> List.iter (fun b -> Hashtbl.replace table b.Block.name (block_nf b)) stage)
    stages;
  (graph, Hashtbl.find table)
