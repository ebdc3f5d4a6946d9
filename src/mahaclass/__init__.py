"""mahaclass: minority-class detection with Mahalanobis contrastive
training and a Beta-distribution decision rule."""
