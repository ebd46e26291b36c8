// HD-frame scene synthesis and tiling.
//
// §III-A motivates minimising the classifier's BRAM with exactly this
// companion workload: "hardware that could extract regions of interest
// in a large HD frame and then scale to 32x32 sub-frames for use in [the]
// CIFAR-10 network".  This module provides both halves in software:
//
//  * SceneGenerator composites CIFAR-like objects at random scales onto
//    a textured HD background (ground truth retained);
//  * tile_grid() decomposes a frame into overlapping tiles, and
//    extract_tile() bilinearly rescales a tile's halo rect to the
//    classifier's 32×32 input.
//
// extract_tile() and paste_object() share one sampling routine: it
// tabulates each output row's and column's source taps and weights once
// per call, then samples from the tables.
#pragma once

#include "data/cifar_like.hpp"

namespace mpcnn::data {

/// Ground-truth object placed in a scene.
struct SceneObject {
  int label = 0;
  Dim x = 0, y = 0;    ///< top-left corner in the frame
  Dim size = 32;       ///< square extent in pixels
};

/// One synthesised frame plus its ground truth.
struct Scene {
  Tensor frame;  ///< (1, 3, H, W), values in [0, 1]
  std::vector<SceneObject> objects;
};

/// Composites scenes out of CifarLikeGenerator objects.
class SceneGenerator {
 public:
  struct Config {
    Dim height = 360;       ///< frame height (360p default keeps the
    Dim width = 640;        ///<   example fast; 720p works too)
    Dim min_object = 32;    ///< smallest pasted object extent
    Dim max_object = 80;    ///< largest pasted object extent
    float background_noise = 0.02f;
  };

  SceneGenerator(const CifarLikeGenerator& objects, Config config);
  explicit SceneGenerator(const CifarLikeGenerator& objects)
      : SceneGenerator(objects, Config()) {}

  /// Generates a scene with up to `max_objects` non-overlapping objects.
  Scene generate(Dim max_objects, Rng& rng) const;

  const Config& config() const { return config_; }

 private:
  const CifarLikeGenerator& objects_;
  Config config_;
};

/// Pastes a 32×32 object render into `frame` at `object`'s box,
/// bilinearly rescaled to the object's extent.  The box must lie inside
/// the frame (checked).  SceneGenerator and the scene-trace generator
/// share this compositor so redrawn regions are bit-identical.
void paste_object(Tensor& frame, const Tensor& render32,
                  const SceneObject& object);

// -------------------------------------------------------------- tiling

/// One tile of a frame decomposition.  The coverage rect (x, y, w, h)
/// partitions the frame — border tiles are short when the tile size does
/// not divide the frame.  The halo rect (hx, hy, hw, hh) is the coverage
/// rect grown by `halo` pixels on every side and clamped to the frame;
/// it is what the classifier window actually sees, so a tile's result
/// depends on exactly those pixels and nothing else.
struct TileGeometry {
  Dim index = 0;       ///< row-major tile index in the grid
  Dim row = 0, col = 0;
  Dim x = 0, y = 0;    ///< coverage rect top-left
  Dim w = 0, h = 0;    ///< coverage extent
  Dim hx = 0, hy = 0;  ///< halo rect top-left (clamped)
  Dim hw = 0, hh = 0;  ///< halo extent (clamped)
};

/// Decomposes an H×W frame into ceil(H/tile) × ceil(W/tile) tiles with
/// `halo` pixels of overlap context.  Handles non-dividing sizes (short
/// border tiles), 1×N / N×1 grids and single-tile frames.  `tile` must
/// be >= 8 (a classifier window needs content); `halo` >= 0.
std::vector<TileGeometry> tile_grid(Dim height, Dim width, Dim tile,
                                    Dim halo);

/// Crops the tile's halo rect and bilinearly resamples it to the 32×32
/// classifier input.  A non-square halo rect (a border tile) is scaled
/// independently along each axis.
Tensor extract_tile(const Tensor& frame, const TileGeometry& tile);

}  // namespace mpcnn::data
